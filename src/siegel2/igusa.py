"""The five ring generators: their names and normalizations, and the cache.

Every command uses this module; only a cache miss builds.  The build
lives in `construction` (the Eisenstein family from Cohen's H, the Maass
lifts X10 and X12 and the determinant X35),
which `ensure_generator_set` imports when the cache is incomplete, binding
the names of its `__all__` here (see `cli` for the rule).

The rule of each cache form (`NORMALIZATION`; `check_form` at build and load):

    E4..E12, X4 = E4, X6 = E6        genus-1 restriction, so a((0,0,0)) = 1
    X10, X12: cusp forms             a((1,1,1)) = 1, zero on rank <= 1
    X35: odd cusp form               a((2,3,-1)) = 1, zero on rank <= 1

and X4..X35 are integral.  A build needs the trace of the X35 index,
`MIN_BUILD_BOUND` = 5 (`require_build_bound`).  The cache holds ten text
files, E4..E12 and X4..X35, keyed by name, bound and `FORMULA_VERSION`;
`load_generator_set` reads none of them up front (see `GeneratorSet`).
"""

from __future__ import annotations

import os
from fractions import Fraction
from pathlib import Path

from .numtheory import bernoulli, divisor_sigma
from .qexp import Expansion, order_key

__all__ = [
    "ConstructionError",
    "FORMULA_VERSION",
    "SUPPORTED_WEIGHTS",
    "GENERATOR_NAMES",
    "MIN_BUILD_BOUND",
    "require_build_bound",
    "genus1_eisenstein",
    "check_form",
    "GeneratorSet",
    "cache_path",
    "save_generator_set",
    "load_generator_set",
    "ensure_generator_set",
]

# bump when any coefficient formula changes: cache files are keyed by it
FORMULA_VERSION = "v1"

SUPPORTED_WEIGHTS = (4, 6, 8, 10, 12)
GENERATOR_NAMES = ("X4", "X6", "X10", "X12", "X35")
CACHE_NAMES = ("E4", "E6", "E8", "E10", "E12") + GENERATOR_NAMES
# the index where each cache form is 1; the cusp forms are those normalized off (0, 0, 0)
NORMALIZATION = dict.fromkeys(CACHE_NAMES, (0, 0, 0)) | {
    "X10": (1, 1, 1), "X12": (1, 1, 1), "X35": (2, 3, -1)}
# a build must reach the X35 normalization index: its trace
MIN_BUILD_BOUND = sum(NORMALIZATION["X35"][:2])
# the atoms of the expression language; each name carries its weight
ATOM_WEIGHTS = {name: int(name[1:]) for name in CACHE_NAMES}


def require_build_bound(bound: int) -> None:
    """Refuse a bound below the trace of the X35 normalization index."""
    if bound < MIN_BUILD_BOUND:
        index = ",".join(map(str, NORMALIZATION["X35"]))
        raise ConstructionError(
            f"generator builds need trace bound >= {MIN_BUILD_BOUND} "
            f"(the X35 normalization index ({index}) has trace {MIN_BUILD_BOUND})"
        )


def _bind() -> None:
    """Import `construction` and bind the names of its `__all__` where none is bound."""
    from . import construction

    for name in construction.__all__:
        globals().setdefault(name, getattr(construction, name))


def __getattr__(name):
    if not name.startswith("_"):  # the import system probes `__path__` and the like
        _bind()
        if name in globals():
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


def check_form(name: str, form: Expansion) -> None:
    """Refuse a form that breaks the rule of its cache name (module docstring):
    a ConstructionError naming the least offending index (`order_key`), if any."""
    index = NORMALIZATION[name]
    cusp, integral = any(index), name in GENERATOR_NAMES
    if not cusp and form.phi() != genus1_eisenstein(form.weight, form.trace_bound):
        raise ConstructionError(f"restriction of {name} disagrees with the genus-1 series")
    flat, bad = [], []
    for T, c in form.coeffs.items() if cusp or integral else ():  # one pass
        if cusp and 4 * T[0] * T[1] == T[2] * T[2]:
            flat.append(T)
        if integral and c.denominator != 1:
            bad.append(T)
    if flat:
        T = min(flat, key=order_key)
        raise ConstructionError(f"{name} has a nonzero rank<=1 coefficient at {T}")
    if form.coefficient(index) != 1:
        raise ConstructionError(f"{name} normalization at {index} failed")
    if bad:
        T = min(bad, key=order_key)
        raise ConstructionError(f"non-integral coefficient {form.coeffs[T]} at {T} in {name}")


class GeneratorSet:
    """The five ring generators plus the Eisenstein family they came from.

    `forms` maps cache names (E4..E12, X4..X35) to expansions.  A built set
    holds all ten.  A set loaded by `load_generator_set` starts with an
    empty `forms` and the paths of the ten cache files: `atom(name)` reads
    and checks a file as a build checks its form (`_load_form`) the first
    time a caller asks for it and keeps it in `forms`, so a command reads
    only the files of the forms it uses.  A set with other forms is a new
    `GeneratorSet`, not an edited one.
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
            exp = Expansion.from_text(f.read())
    except ValueError as exc:
        raise ValueError(f"cache file {path}: {exc}") from None
    if exp.trace_bound != trace_bound:
        raise ValueError(f"cache file {path} has inconsistent trace bound")
    if exp.weight != ATOM_WEIGHTS[name] or exp.modulus is not None:
        raise ValueError(
            f"cache file {path} holds a {exp._domain()} expansion of weight {exp.weight}, "
            f"expected a rational one of weight {ATOM_WEIGHTS[name]}"
        )
    try:
        check_form(name, exp)
    except ConstructionError as exc:
        raise ValueError(f"cache file {path} is cut short or damaged: {exc}") from None
    return exp


def load_generator_set(trace_bound: int, cache_dir) -> GeneratorSet | None:
    """A cached build; None when any of the ten files is missing.

    No file is read here: the set starts empty, and `gen.atom(name)` reads
    and checks a file the first time a caller asks for its form, so a
    command reads only the files it uses.  Each file's header must match
    its name: the weight in the name (E10 -> 10, X35 -> 35), the rational
    domain and the trace bound; its form must pass `check_form`, as at
    build.  So E4..E12, X4 and X6, whose last line at (N, 0, 0) is nonzero,
    fail when cut short, as does any file cut before its normalization
    index.  A failure raises ValueError naming the file, at that first
    use.  Other coefficients are *not* re-derived (an X10, X12 or X35 file
    cut past its normalization index passes), so integrity questions
    about a cache are answered by the verification pipeline.
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
