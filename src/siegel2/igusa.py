"""The five ring generators: their names and normalizations, and the cache.

Every command uses this module; only a cache miss builds.  The build
lives in `construction` (the Eisenstein family from Cohen's H, the Maass
lifts X10 and X12, the determinant X35 and the check of each generator),
which `ensure_generator_set` imports when the cache is incomplete.  Its
public names are read here too (`igusa.build_x35`, see `_DEFERRED`).

Generators and normalizations (`NORMALIZATION`):

    X4  = E4,  X6 = E6               a((0,0,0)) = 1
    X10, X12: cusp forms             a((1,1,1)) = 1, zero on rank <= 1
    X35: odd generator               a((2,3,-1)) = 1

A build needs the trace of the X35 index, `MIN_BUILD_BOUND` = 5.  The
cache holds ten text files, E4..E12 and X4..X35, keyed by name, bound and
`FORMULA_VERSION`; `load_generator_set` reads none of them up front (see
`GeneratorSet`).
"""

from __future__ import annotations

import os
from fractions import Fraction
from pathlib import Path

from .numtheory import bernoulli, divisor_sigma
from .qexp import Expansion

__all__ = [
    "ConstructionError",
    "FORMULA_VERSION",
    "SUPPORTED_WEIGHTS",
    "GENERATOR_NAMES",
    "MIN_BUILD_BOUND",
    "genus1_eisenstein",
    "maass_lift",
    "siegel_eisenstein",
    "eisenstein_family",
    "build_x10_x12",
    "build_x35",
    "GeneratorSet",
    "build_generator_set",
    "cache_path",
    "save_generator_set",
    "load_generator_set",
    "ensure_generator_set",
]

# bump when any coefficient formula changes: cache files are keyed by it
FORMULA_VERSION = "v1"

SUPPORTED_WEIGHTS = (4, 6, 8, 10, 12)
GENERATOR_NAMES = ("X4", "X6", "X10", "X12", "X35")
# the index where each generator is 1; the cusp forms are those normalized off (0, 0, 0)
NORMALIZATION = {"X4": (0, 0, 0), "X6": (0, 0, 0), "X10": (1, 1, 1), "X12": (1, 1, 1),
                 "X35": (2, 3, -1)}
# a build must reach the X35 normalization index: its trace
MIN_BUILD_BOUND = sum(NORMALIZATION["X35"][:2])
CACHE_NAMES = ("E4", "E6", "E8", "E10", "E12") + GENERATOR_NAMES
# the atoms of the expression language; each name carries its weight
ATOM_WEIGHTS = {name: int(name[1:]) for name in CACHE_NAMES}

# the names of `construction` answered here: `ensure_generator_set` binds
# them on a cache miss, `__getattr__` on any other read (`igusa.build_x35`,
# say).  A name bound already, to a caller's wrapper say, is kept.
_DEFERRED = ("cohen_h", "maass_lift", "siegel_eisenstein", "eisenstein_family",
             "build_x10_x12", "build_x35", "build_generator_set")


def _bind() -> None:
    """Import `construction` and bind its names where none is bound."""
    from . import construction

    for name in _DEFERRED:
        globals().setdefault(name, getattr(construction, name))


def __getattr__(name):
    if name in _DEFERRED:
        _bind()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class ConstructionError(RuntimeError):
    """A generator build failed an internal identity or normalization."""


def genus1_eisenstein(k: int, trace_bound: int) -> list:
    """Coefficients [a_0..a_N] of the genus-1 series 1 - (2k/B_k) sum sigma_{k-1}(n) q^n."""
    if k < 4 or k % 2:
        raise ValueError("weight must be even and >= 4")
    factor = Fraction(-2 * k) / bernoulli(k)
    out: list = [1]
    for n in range(1, trace_bound + 1):
        v = factor * divisor_sigma(k - 1, n)
        out.append(int(v) if v.denominator == 1 else v)
    return out


class GeneratorSet:
    """The five ring generators plus the Eisenstein family they came from.

    `forms` maps cache names (E4..E12, X4..X35) to expansions.  A built set
    holds all ten.  A set loaded by `load_generator_set` starts with an
    empty `forms` and the paths of the ten cache files: `atom(name)` reads
    and checks a file (`_load_form`) the first time a caller asks for its
    form and keeps it in `forms`, so a command reads only the files of the
    forms it uses.  A set with other forms is a new `GeneratorSet`, not an
    edited one.
    """

    __slots__ = ("forms", "trace_bound", "_paths")

    def __init__(self, forms: dict[str, Expansion], trace_bound: int):
        self.forms = forms
        self.trace_bound = trace_bound
        self._paths: dict[str, Path] = {}  # a loaded set: the cache file of each name

    @property
    def eisenstein(self) -> dict[int, Expansion]:
        return {k: self.atom(f"E{k}") for k in SUPPORTED_WEIGHTS}

    def generators(self) -> dict[str, Expansion]:
        return {name: self.atom(name) for name in GENERATOR_NAMES}

    def atom(self, name: str) -> Expansion:
        """Expansion for an atom name (X4..X35 or E4..E12); KeyError otherwise."""
        if name not in self.forms:
            self.forms[name] = _load_form(name, self._paths[name], self.trace_bound)
        return self.forms[name]


# ----- cache ------------------------------------------------------------


def cache_path(cache_dir, name: str, trace_bound: int) -> Path:
    return Path(cache_dir) / f"{name}_N{trace_bound}_{FORMULA_VERSION}.qexp"


def save_generator_set(gen: GeneratorSet, cache_dir) -> list[Path]:
    """Write the ten expansion files (five E's, five X's); returns the paths.

    Each file is written to a temporary file in the cache directory (named
    by the process id, so concurrent builds do not share one) and then
    renamed over its final name, so a reader never sees a partial file.
    """
    cache_dir = Path(cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)
    paths, texts = [], {}  # one text per expansion: a built X4 is its E4
    for name in CACHE_NAMES:
        path = cache_path(cache_dir, name, gen.trace_bound)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        form = gen.atom(name)
        if id(form) not in texts:
            texts[id(form)] = form.to_text()
        try:
            tmp.write_text(texts[id(form)], newline="")  # "\n" on every platform
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)  # left over only when a step failed
        paths.append(path)
    return paths


def _load_form(name: str, path: Path, trace_bound: int) -> Expansion:
    """Read one cache file and check it against its name (see
    `load_generator_set`); a mismatch or a line that does not parse raises
    ValueError naming the file."""
    try:
        with path.open(newline="") as f:  # no newline translation: "\r\n" is refused
            text = f.read()
        exp = Expansion.from_text(text)
    except ValueError as exc:
        raise ValueError(f"cache file {path}: {exc}") from None
    if exp.trace_bound != trace_bound:
        raise ValueError(f"cache file {path} has inconsistent trace bound")
    if exp.weight != ATOM_WEIGHTS[name] or exp.modulus is not None:
        raise ValueError(
            f"cache file {path} holds a {exp._domain()} expansion of weight {exp.weight}, "
            f"expected a rational one of weight {ATOM_WEIGHTS[name]}"
        )
    eisenstein_type = name[0] == "E" or name in ("X4", "X6")
    if eisenstein_type and exp.phi() != genus1_eisenstein(exp.weight, trace_bound):
        raise ValueError(
            f"cache file {path} is cut short or damaged: its restriction "
            f"disagrees with the genus-1 series of weight {exp.weight}"
        )
    return exp


def load_generator_set(trace_bound: int, cache_dir) -> GeneratorSet | None:
    """A cached build; None when any of the ten files is missing.

    No file is read here: the set starts empty, and `gen.atom(name)` reads
    and checks a file the first time a caller asks for its form, so a
    command reads only the files it uses.  Each file's header must match
    its name: the weight in the name (E10 -> 10, X35 -> 35), the rational
    domain and the trace bound.  The Siegel restriction of E4..E12, X4 and
    X6 must be the genus-1 series: their last line, at (N, 0, 0), is
    nonzero, so a file cut short fails this.  A mismatch raises ValueError
    naming the file, at that first use.  Other coefficients are *not*
    re-derived here (a cut X10, X12 or X35 file passes), so integrity
    questions about a cache are answered by the verification pipeline.
    """
    paths = {name: cache_path(cache_dir, name, trace_bound) for name in CACHE_NAMES}
    if not all(p.is_file() for p in paths.values()):
        return None
    gen = GeneratorSet({}, trace_bound)
    gen._paths = paths
    return gen


def ensure_generator_set(trace_bound: int, cache_dir) -> tuple[GeneratorSet, bool]:
    """Load from the cache directory when complete, else build and cache.

    Returns (generator_set, came_from_cache).
    """
    cached = load_generator_set(trace_bound, cache_dir)
    if cached is not None:
        return cached, True
    _bind()
    gen = build_generator_set(trace_bound)
    save_generator_set(gen, cache_dir)
    return gen, False
