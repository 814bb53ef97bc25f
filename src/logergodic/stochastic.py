"""Seeded simulation of Wiener and geometric Brownian paths, and CSV path I/O.

All generators are pure functions of their inputs: the same (grid, seed)
pair always reproduces the same path bit for bit.  Ensembles derive one
seed per path from (master_seed, path_index), so member paths do not
depend on evaluation order.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import itertools
import math
import os
import shutil
import stat
import tempfile
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import IO

import numpy as np

__all__ = [
    "PathKind",
    "TimeGrid",
    "WienerPath",
    "GbmParams",
    "SamplePath",
    "simulate_wiener",
    "simulate_gbm",
    "log_path",
    "path_seed",
    "write_path_csv",
    "read_path_csv",
    "path_header",
]


class PathKind(Enum):
    PRICE = "price"
    LOGPRICE = "logprice"
    ZPROCESS = "zprocess"


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [0, T] with step dt and n = T/dt intervals."""

    T: float
    dt: float

    def __post_init__(self):
        if not (self.T > 0.0 and math.isfinite(self.T)):
            raise ValueError(f"horizon T must be positive and finite, got {self.T}")
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise ValueError(f"step dt must be positive and finite, got {self.dt}")
        if not math.isfinite(self.T / self.dt):
            raise ValueError(f"T = {self.T} over dt = {self.dt} is beyond the float range")
        n = self.n
        if n < 2:
            raise ValueError(f"grid needs at least 2 steps, got n={n}")
        if abs(n * self.dt - self.T) > 1e-9 * max(1.0, self.T):
            raise ValueError(
                f"dt={self.dt} does not divide T={self.T} (n*dt = {n * self.dt})"
            )

    @property
    def n(self) -> int:
        return round(self.T / self.dt)

    def times(self) -> np.ndarray:
        # linspace keeps the endpoint exactly T
        return np.linspace(0.0, self.n * self.dt, self.n + 1)

    def index_of(self, t: float | np.ndarray) -> int | np.ndarray:
        """Nearest grid index for time t, clamped to [0, n]; ties round half
        to even, as round() does.  An array of times gives an index array."""
        ta = np.asarray(t, dtype=float)
        if not np.all(np.isfinite(ta)):
            raise ValueError(f"t must be finite, got {t}")
        k = np.clip(np.rint(ta / self.dt), 0, self.n).astype(np.intp)
        return int(k) if k.ndim == 0 else k

    def compatible(self, other: "TimeGrid") -> bool:
        return self.n == other.n and math.isclose(self.dt, other.dt, rel_tol=1e-12)


@dataclass(frozen=True, eq=False)
class WienerPath:
    grid: TimeGrid
    w: np.ndarray

    def __post_init__(self):
        if len(self.w) != self.grid.n + 1:
            raise ValueError("Wiener path length must be grid.n + 1")
        if self.w[0] != 0.0:
            raise ValueError("Wiener path must start at 0")
        bad = np.flatnonzero(~np.isfinite(self.w))
        if bad.size:
            raise ValueError(f"Wiener values must be finite, got {self.w[bad[0]]} "
                             f"at index {bad[0]}")

    @property
    def terminal(self) -> float:
        return float(self.w[-1])


@dataclass(frozen=True)
class GbmParams:
    mu: float
    sigma: float
    s0: float

    def __post_init__(self):
        for name in ("mu", "sigma", "s0"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.s0 > 0:
            raise ValueError(f"s0 must be positive, got {self.s0}")
        if not self.sigma > 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        try:
            q_finite = math.isfinite(self.q)
        except OverflowError:  # sigma**2 beyond the float range
            q_finite = False
        if not q_finite:
            raise ValueError(f"mu = {self.mu} and sigma = {self.sigma} put the log drift "
                             "q = mu - sigma^2/2 outside the float range")

    @property
    def q(self) -> float:
        """Log drift mu - sigma^2 / 2."""
        return self.mu - 0.5 * self.sigma**2


@dataclass(frozen=True, eq=False)
class SamplePath:
    grid: TimeGrid
    values: np.ndarray
    kind: PathKind

    def __post_init__(self):
        # a float64 array is kept as is, not copied
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if len(self.values) != self.grid.n + 1:
            raise ValueError(
                f"path has {len(self.values)} values, grid expects {self.grid.n + 1}"
            )
        bad = np.flatnonzero(~np.isfinite(self.values))
        if bad.size:
            raise ValueError(f"path values must be finite, got {self.values[bad[0]]} "
                             f"at index {bad[0]}")
        if self.kind is PathKind.PRICE and not np.all(self.values > 0):
            raise ValueError("price paths must be strictly positive")


def path_seed(master_seed: int, path_index: int) -> np.random.SeedSequence:
    """Per-path seed derived from (master_seed, path_index).

    Members of an ensemble can be generated in any order, or in parallel,
    without changing the result.
    """
    return np.random.SeedSequence(entropy=master_seed, spawn_key=(path_index,))


def simulate_wiener(grid: TimeGrid, seed) -> WienerPath:
    """Standard Wiener path: W[0] = 0, independent N(0, dt) increments."""
    rng = np.random.default_rng(seed)
    dw = rng.normal(0.0, math.sqrt(grid.dt), grid.n)
    w = np.empty(grid.n + 1)
    w[0] = 0.0
    np.cumsum(dw, out=w[1:])
    return WienerPath(grid=grid, w=w)


def simulate_gbm(params: GbmParams, wiener: WienerPath) -> SamplePath:
    """Exact GBM path S = s0 * exp(q t + sigma W); no Euler error."""
    t = wiener.grid.times()
    with np.errstate(over="ignore"):  # an inf or 0 price fails SamplePath's checks
        s = params.s0 * np.exp(params.q * t + params.sigma * wiener.w)
    try:
        return SamplePath(grid=wiener.grid, values=s, kind=PathKind.PRICE)
    except ValueError as e:
        raise ValueError(f"mu = {params.mu}, sigma = {params.sigma} and s0 = {params.s0} over "
                         f"T = {wiener.grid.T} take the price out of the float range: {e}") from None


def log_path(price: SamplePath) -> SamplePath:
    """Pointwise natural log of a price path, which SamplePath keeps positive."""
    if price.kind is not PathKind.PRICE:
        raise ValueError(f"log_path expects a price path, got {price.kind.value}")
    return SamplePath(grid=price.grid, values=np.log(price.values), kind=PathKind.LOGPRICE)


# --- serialization -----------------------------------------------------------


def path_header(path: SamplePath, seed: int | None = None, params: dict | None = None) -> dict:
    return {
        "kind": path.kind.value,
        "seed": seed,
        "params": params or {},
        "T": path.grid.T,
        "dt": path.grid.dt,
        "n": path.grid.n,
    }


_CHUNK_ROWS = 4096  # rows formatted per write; bounds the strings held at once


def _rows(columns):
    """The rows of the columns; an array column becomes a list only here."""
    return zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in columns))


def _lines(*fields) -> str:
    """The CSV lines of the field-string columns `fields` (non-empty)."""
    return "\r\n".join(map(",".join, zip(*fields))) + "\r\n"


def _write_csv(fh: IO[str], header: list[str], columns) -> None:
    """Write one CSV table, its header first, from its columns to an open text file.

    The bytes are those of `csv.writer`: CRLF line ends, floats as `repr`,
    ints in decimal, other fields quoted as QUOTE_MINIMAL.  A table of int
    and float arrays, whose fields and header never need quoting, goes
    through `_write_tables`; any other table through `csv.writer`.
    """
    columns = list(columns)
    if all(isinstance(c, np.ndarray) and c.dtype.kind in "iuf" for c in columns):
        _write_tables([fh], [",".join(header) + "\r\n"], min(map(len, columns), default=0),
                      lambda i, j: (_lines(*(map(repr, c[i:j].tolist()) for c in columns)),))
        return
    writer = csv.writer(fh)
    writer.writerow(header)
    writer.writerows(_rows(columns))


# the fewest rows a forked writer takes.  2 blocks against 1 on a 2-vCPU KVM
# guest: trade's figure tables (100 MB parent), 2 x 4096 rows 23 ms against 18,
# 2 x 8192 27 against 33; a path CSV beside 99 others, 32769 rows 32 against 39
_FORK_MIN_ROWS = 4 * _CHUNK_ROWS


def _cpu_count() -> int:
    """The CPUs this process may run on and fork to, or 1 where the platform does not say."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _write(files, texts, finals, parts=()) -> None:
    """Write each tuple of `texts`, its k-th string to the open text file
    files[k], then append the bytes of the k-th file of each block of `parts`,
    and flush; an OSError is raised again naming finals[k], the final file."""
    k = 0
    try:
        for row in texts:
            for k, (fh, text) in enumerate(zip(files, row)):
                fh.write(text)
            del row, text  # so that the next chunk is formatted with this one freed
        for k, fh in enumerate(files):
            fh.flush()  # a full disk may show only here
            for block in parts:
                block[k].seek(0)
                shutil.copyfileobj(block[k].buffer, fh.buffer)
            fh.flush()
    except OSError as e:
        raise OSError(e.errno, e.strerror, getattr(finals[k], "name", None)) from None


def _fork_writer(files, texts, finals) -> tuple[int, int]:
    """Fork a child that runs _write(files, texts, finals) and exits; return
    its pid and the read end of a pipe that carries its OSError, if any."""
    read, write = os.pipe()
    try:
        with warnings.catch_warnings():
            # Python 3.12+ warns of a fork in a process with threads, such as
            # BLAS workers: the child calls no BLAS and takes no lock of theirs
            warnings.filterwarnings("ignore", r"This process .*is multi-threaded",
                                    DeprecationWarning)
            pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        raise
    if pid:
        os.close(write)
        return pid, read
    try:  # the child never returns: os._exit skips the parent's buffers and handlers
        os.close(read)
        _write(files, texts, finals)
        os._exit(0)
    except OSError as e:
        os.write(write, f"{e.errno}\0{e.strerror}\0{e.filename}".encode())
    finally:
        os._exit(1)


def _reap(pid: int, read: int, finals) -> OSError | None:
    """Wait for a child of _fork_writer; return its OSError, naming a file of `finals`, or None."""
    with open(read, "rb") as fh:
        report = fh.read()  # ends when the child exits
    status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if report:
        errno, strerror, filename = report.decode().split("\0")
        return OSError(int(errno), strerror, filename)
    return (OSError(None, f"its writer exited with status {status}", finals[0].name)
            if status else None)


def _at_path(fh) -> bool:
    """Whether the open file fh is a regular file that its name, a str, names:
    not a stream such as io.StringIO, sys.stdout ('<stdout>') or a pipe."""
    with contextlib.suppress(AttributeError, OSError, ValueError):
        st = os.fstat(fh.fileno())
        return isinstance(fh.name, str) and stat.S_ISREG(st.st_mode) and os.path.samestat(
            st, os.stat(fh.name))
    return False


def _write_tables(files, headers, n_rows: int, chunk) -> None:
    """Write tables of n_rows rows, one to each open text file of `files`:
    file k gets headers[k], then chunk(i, j)[k], the text of rows i to j - 1,
    for each _CHUNK_ROWS rows in order.  An OSError names the file it met.

    The rows are cut into contiguous chunk-aligned blocks, one per CPU that
    this process may use while each keeps _FORK_MIN_ROWS rows.  Each block
    after the first is written by a forked child into unnamed temporary
    files beside the final ones, opened before the fork, that the parent
    appends after its own block; there is one block unless each file is
    _at_path and its directory takes them.  The bytes do not depend on it.
    """
    n_chunks = -(-n_rows // _CHUNK_ROWS)
    workers = min(_cpu_count(), n_chunks, n_rows // _FORK_MIN_ROWS)

    def texts(start, stop):
        for i in range(start, stop, _CHUNK_ROWS):
            yield chunk(i, min(i + _CHUNK_ROWS, stop))

    with contextlib.ExitStack() as stack:  # closing a temporary file deletes it
        parts = []  # the temporary files of each block after the first
        with contextlib.suppress(OSError):  # such as a writable file in a read-only directory
            for _ in range(1, workers if workers > 1 and all(map(_at_path, files)) else 1):
                parts.append([stack.enter_context(tempfile.TemporaryFile(
                    "w+", encoding=fh.encoding, newline="", dir=os.path.dirname(fh.name)))
                    for fh in files])
        bounds = [min(n_rows, b * n_chunks // (len(parts) + 1) * _CHUNK_ROWS)
                  for b in range(len(parts) + 2)]
        children = []
        try:
            for b, block in enumerate(parts, 1):
                children.append(_fork_writer(block, texts(bounds[b], bounds[b + 1]), files))
            _write(files, itertools.chain([headers], texts(0, bounds[1])), files)
        finally:  # every child is reaped, whatever the parent met
            errors = [e for e in (_reap(pid, read, files) for pid, read in children) if e]
        if errors:
            raise errors[0]
        _write(files, (), files, parts)


@functools.lru_cache(maxsize=1)
def _time_fields(grid: TimeGrid) -> tuple[str, ...]:
    """The CSV fields of the grid's times, kept for the last grid written, so
    that an ensemble on one grid formats them once."""
    return tuple(map(repr, grid.times().tolist()))


def write_path_csv(path: SamplePath, fh: IO[str]) -> None:
    """Write a 't,value' path CSV, the table `_write_csv` writes from the two columns."""
    times = _time_fields(path.grid)
    _write_tables([fh], ["t,value\r\n"], len(times),
                  lambda i, j: (_lines(times[i:j], map(repr, path.values[i:j].tolist())),))


def read_path_csv(fh: IO[str]) -> SamplePath:
    """Read a 't,value' price CSV whose times are the uniform grid 0, dt, ..., T.

    The first line is the header, parsed by `csv`; columns after 'value' are
    ignored.  The data rows are read by one `np.loadtxt` with `csv`'s quoting:
    LF or CRLF line ends, quoted fields and blank lines are accepted.  A row
    whose t or value is missing or not a number, such as '1_000' or '', is
    refused with NumPy's note of the field, its row and its column.
    """
    line = fh.readline()
    if not line:
        raise ValueError("path CSV is empty; expected a 't,value' header")
    try:
        header = next(csv.reader([line]))
    except csv.Error as e:
        raise ValueError(f"path CSV header is not a CSV line: {e}") from None
    if header[:2] != ["t", "value"]:
        raise ValueError(f"expected 't,value' header, got {header}")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # a header-only file has no data
            t, v = np.loadtxt(fh, delimiter=",", quotechar='"', usecols=(0, 1), ndmin=2,
                              comments=None).T
    except ValueError as e:
        raise ValueError(f"path CSV rows must start with two numbers t,value: {e}") from None
    if len(t) < 3:
        raise ValueError(f"path CSV has {len(t)} data row(s); a path needs at least 3")
    if t[0] != 0.0:
        raise ValueError(f"path CSV times must start at 0, got t = {t[0]}")
    grid = TimeGrid(T=float(t[-1]), dt=float(t[1] - t[0]))
    # same tolerance as TimeGrid's check that dt divides T
    if len(t) != grid.n + 1 or not np.max(np.abs(t - grid.times())) <= 1e-9 * max(1.0, grid.T):
        raise ValueError(f"path CSV times are not the uniform grid 0, {grid.dt!r}, ..., {grid.T!r}")
    return SamplePath(grid=grid, values=v, kind=PathKind.PRICE)
