"""The OffsetStone-like named benchmark suite (Fig. 4's x-axis).

OffsetStone itself (Leupers, CC'03) is not redistributable, so this module
generates a deterministic stand-in per program name with the published
characterisation: varying numbers of access sequences per program,
variable counts from a handful up to ~1000 (capped at the 4 KiB RTM's
1024-word capacity so every sequence is placeable) and sequence lengths
up to 3640 accesses. Each program draws from generators matching its
application domain — control-dominated tools get statement-level sliding
working sets with loop-back revisits, DSP programs get pipelines of loop
nests (setup code + repeated bodies), media programs get wider per-block
working sets, compressors get hot global tables over streaming state —
because the *relative* behaviour of the placement policies derives from
this structure. See DESIGN.md §5 for the full substitution rationale.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from repro.errors import TraceError
from repro.trace.generators import kernels as k
from repro.trace.generators.synthetic import (
    concat_sequences,
    looped_sequence,
    phased_sequence,
    sliding_window_sequence,
)
from repro.trace.sequence import AccessSequence
from repro.trace.trace import MemoryTrace
from repro.util.rng import ensure_rng

#: Maximum variables per sequence: the 4 KiB / 32-track RTM of Table I has
#: dbcs * domains_per_dbc = 1024 single-word locations in every configuration.
MAX_VARS = 1000


@dataclass(frozen=True)
class SuiteProfile:
    """Static characterisation of one named benchmark program."""

    name: str
    domain: str  # control | dsp | media | compression | scientific
    num_sequences: int
    vars_range: tuple[int, int]
    length_range: tuple[int, int]


@dataclass(frozen=True)
class BenchmarkProgram:
    """A named program: a bag of independent access traces.

    As in the offset-assignment literature, each access sequence (one per
    procedure) is placed and evaluated independently; program-level
    metrics are sums over sequences.
    """

    name: str
    domain: str
    traces: tuple[MemoryTrace, ...]

    @property
    def num_sequences(self) -> int:
        return len(self.traces)

    @property
    def total_accesses(self) -> int:
        return sum(len(t) for t in self.traces)

    @property
    def max_variables(self) -> int:
        return max(len(t.variables) for t in self.traces)

    @property
    def max_length(self) -> int:
        return max(len(t) for t in self.traces)


_P = SuiteProfile

#: One profile per program name appearing in Fig. 4.
_PROFILES: dict[str, SuiteProfile] = {
    p.name: p
    for p in [
        _P("8051", "control", 10, (4, 60), (8, 220)),
        _P("adpcm", "dsp", 4, (8, 40), (60, 400)),
        _P("anagram", "control", 5, (6, 48), (16, 260)),
        _P("anthr", "control", 8, (4, 90), (12, 300)),
        _P("bdd", "control", 8, (8, 140), (20, 420)),
        _P("bison", "control", 10, (6, 200), (16, 600)),
        _P("cavity", "media", 5, (12, 160), (60, 700)),
        _P("cc65", "control", 12, (4, 240), (12, 520)),
        _P("codecs", "media", 8, (10, 180), (40, 640)),
        _P("cpp", "control", 10, (6, 260), (16, 560)),
        _P("dct", "dsp", 4, (12, 64), (80, 520)),
        _P("dspstone", "dsp", 10, (4, 48), (24, 360)),
        _P("eqntott", "control", 6, (8, 120), (20, 380)),
        _P("f2c", "control", 12, (6, 300), (14, 640)),
        _P("fft", "dsp", 4, (16, 72), (100, 680)),
        _P("flex", "control", 10, (8, 280), (18, 620)),
        _P("fuzzy", "control", 5, (6, 56), (20, 260)),
        _P("gif2asc", "media", 5, (8, 100), (30, 380)),
        _P("gsm", "dsp", 8, (10, 90), (60, 760)),
        _P("gzip", "compression", 8, (8, 200), (30, 900)),
        _P("h263", "media", 8, (12, 240), (60, 880)),
        _P("hmm", "scientific", 6, (10, 130), (40, 560)),
        _P("jpeg", "media", 10, (10, 280), (40, 820)),
        _P("klt", "media", 5, (12, 150), (50, 600)),
        _P("lpsolve", "scientific", 8, (8, 320), (24, 700)),
        _P("motion", "media", 4, (10, 110), (60, 620)),
        _P("mp3", "media", 8, (12, 340), (60, 3640)),
        _P("mpeg2", "media", 10, (12, 330), (50, 1000)),
        _P("sparse", "scientific", 6, (8, 260), (24, 640)),
        _P("triangle", "scientific", 5, (8, 140), (24, 460)),
        _P("viterbi", "dsp", 4, (10, 80), (80, 640)),
    ]
}

OFFSETSTONE_NAMES: tuple[str, ...] = tuple(_PROFILES)

#: The program holding the suite's longest access sequence (Sec. IV-B runs
#: the GA for 2000 generations on this one).
_LARGEST = "mp3"


def benchmark_profile(name: str) -> SuiteProfile:
    """Return the static profile of a named benchmark."""
    try:
        return _PROFILES[name]
    except KeyError:
        raise TraceError(
            f"unknown benchmark {name!r}; known: {', '.join(OFFSETSTONE_NAMES)}"
        ) from None


def largest_sequence_benchmark() -> str:
    """Name of the program with the longest access sequence in the suite."""
    return _LARGEST


def load_benchmark(
    name: str,
    scale: float = 1.0,
    seed: int = 0,
    write_ratio: float = 0.25,
) -> BenchmarkProgram:
    """Generate one named program deterministically.

    ``scale`` in (0, 1] shrinks sequence counts and lengths proportionally
    (used by the quick evaluation profile); ``seed`` perturbs the whole
    suite while keeping per-name determinism.
    """
    profile = benchmark_profile(name)
    if not 0.0 < scale <= 1.0:
        raise TraceError(f"scale must be in (0, 1], got {scale}")
    rng = ensure_rng(zlib.crc32(name.encode()) ^ (seed * 0x9E3779B1 & 0xFFFFFFFF))
    num_seqs = max(2, round(profile.num_sequences * scale))
    traces: list[MemoryTrace] = []
    for i in range(num_seqs):
        seq = _make_sequence(profile, i, scale, rng)
        traces.append(MemoryTrace.with_write_ratio(seq, write_ratio, rng))
    return BenchmarkProgram(name=name, domain=profile.domain, traces=tuple(traces))


def offsetstone_suite(
    scale: float = 1.0,
    seed: int = 0,
    names: tuple[str, ...] | None = None,
) -> list[BenchmarkProgram]:
    """Generate the full 31-program suite (or a named subset)."""
    return [load_benchmark(n, scale=scale, seed=seed) for n in names or OFFSETSTONE_NAMES]


# -- per-domain sequence construction ---------------------------------------


def _pick(rng: np.random.Generator, lo: int, hi: int, top: bool = False) -> int:
    """Log-uniform draw in [lo, hi], mimicking OffsetStone's long-tailed
    size distribution (many small, a few large sequences). ``top`` pins
    the draw to the upper end (each program's dominating sequence)."""
    hi = max(lo, hi)
    if top:
        return hi
    return round(float(np.exp(rng.uniform(np.log(lo), np.log(hi)))))


def _make_sequence(
    profile: SuiteProfile, index: int, scale: float, rng: np.random.Generator
) -> AccessSequence:
    # Lengths scale with the profile; variable counts shrink more gently
    # (sqrt) so the placement problem stays non-degenerate (well above the
    # largest DBC count) even in the quick evaluation profile.
    var_scale = min(1.0, max(scale ** 0.5, 0.35))
    vars_lo, vars_hi = profile.vars_range
    vars_hi = max(vars_lo, round(vars_hi * var_scale))
    len_lo, len_hi = profile.length_range
    len_hi = max(len_lo, round(len_hi * scale))
    # Sequence 0 is each program's dominating large sequence; the rest
    # follow the long-tailed distribution.
    n_vars = min(MAX_VARS, _pick(rng, vars_lo, vars_hi, top=index == 0))
    length = _pick(rng, len_lo, len_hi, top=index == 0)
    length = max(length, 3 * n_vars, 16)
    seq_name = f"{profile.name}.seq{index}"
    maker = {
        "control": _control_sequence,
        "dsp": _dsp_sequence,
        "media": _media_sequence,
        "compression": _compression_sequence,
        "scientific": _scientific_sequence,
    }[profile.domain]
    seq = maker(n_vars, length, rng, seq_name)
    # The longest sequence of the suite is pinned on the designated program
    # at full scale, matching the published maximum of 3640 accesses.
    if profile.name == _LARGEST and index == 0 and scale >= 1.0:
        seq = _stretch(seq, profile.length_range[1], rng)
    return seq


def _control_sequence(
    n_vars: int, length: int, rng: np.random.Generator, name: str
) -> AccessSequence:
    """Branchy sequential code: short staggered live ranges + globals.

    Control-dominated procedures (parsers, code generators) touch most
    locals in a short burst of neighbouring statements — exactly the
    staggered-lifetime structure the DMA heuristic keys on — while a
    handful of state variables stay live throughout.
    """
    shared = max(1, min(10, n_vars // 8))
    return sliding_window_sequence(
        max(2, n_vars - shared),
        length,
        window=int(rng.integers(3, 6)),
        locality=float(rng.uniform(0.35, 0.55)),
        shared_vars=shared,
        shared_ratio=float(rng.uniform(0.04, 0.12)),
        revisit=float(rng.uniform(0.06, 0.14)),
        rng=rng,
        name=name,
    )


def _dsp_sequence(
    n_vars: int, length: int, rng: np.random.Generator, name: str
) -> AccessSequence:
    """Loop-dominated code: repeated kernel bodies over register groups."""
    if rng.random() < 0.4:
        seq = _kernel_sequence(length, rng, name)
        if seq is not None and seq.num_variables <= MAX_VARS:
            return seq
    # A DSP procedure is a pipeline of loop nests: each nest has straight-
    # line setup code (short staggered live ranges) followed by a loop body
    # repeated over its own temporaries (non-disjoint within the nest,
    # disjoint across nests).
    vars_per_pattern = max(2, min(n_vars, int(rng.integers(3, 9))))
    num_patterns = max(1, n_vars // (vars_per_pattern + vars_per_pattern // 2 + 1))
    pattern_length = int(rng.integers(3, 2 * vars_per_pattern + 3))
    per_nest = max(1, length // max(1, num_patterns))
    repeats = max(1, (per_nest * 2 // 3) // pattern_length)
    sections: list[AccessSequence] = []
    loops = looped_sequence(
        num_patterns, pattern_length, repeats, vars_per_pattern,
        rng=rng, name=name,
    )
    loop_bodies = _split_rounds(loops, num_patterns)
    for nest, body in enumerate(loop_bodies):
        setup_vars = max(2, vars_per_pattern // 2)
        setup = sliding_window_sequence(
            setup_vars,
            max(4, per_nest // 3),
            window=min(3, setup_vars),
            locality=0.4,
            rng=rng,
            name=f"{name}.setup{nest}",
        )
        renamed = AccessSequence(
            [f"n{nest}_{a}" for a in setup.accesses],
            [f"n{nest}_{v}" for v in setup.variables],
            name=setup.name,
        )
        sections.append(renamed)
        sections.append(body)
    return concat_sequences(sections, name=name)


def _split_rounds(loops: AccessSequence, num_patterns: int) -> list[AccessSequence]:
    """Split a looped sequence into its per-pattern sections."""
    groups: dict[str, list[str]] = {}
    for v in loops.variables:
        groups.setdefault(v.split("_")[0], []).append(v)
    sections = []
    for p in range(num_patterns):
        prefix = f"l{p}"
        if prefix in groups:
            sections.append(loops.restricted_to(groups[prefix], name=f"{loops.name}.{prefix}"))
    return sections


def _media_sequence(
    n_vars: int, length: int, rng: np.random.Generator, name: str
) -> AccessSequence:
    """Block processing: per-block bursts sliding over a larger state.

    Media code walks pixel/coefficient blocks: wider active windows than
    control code (a whole block's temporaries are live together) but the
    same staggered progression from block to block, plus global quant
    tables and counters.
    """
    shared = max(1, min(8, n_vars // 10))
    return sliding_window_sequence(
        max(2, n_vars - shared),
        length,
        window=int(rng.integers(5, 11)),
        locality=float(rng.uniform(0.3, 0.5)),
        shared_vars=shared,
        shared_ratio=float(rng.uniform(0.05, 0.15)),
        revisit=float(rng.uniform(0.08, 0.16)),
        rng=rng,
        name=name,
    )


def _compression_sequence(
    n_vars: int, length: int, rng: np.random.Generator, name: str
) -> AccessSequence:
    """Table-driven coders: hot global tables over streaming block state.

    Compressors stream through per-block temporaries while a few code
    tables stay hot for the whole run — a markedly larger globally-live
    fraction than in control code, so disjoint and non-disjoint traffic
    mix (the hard case for inter-DBC distribution).
    """
    shared = max(2, min(12, n_vars // 5))
    return sliding_window_sequence(
        max(2, n_vars - shared),
        length,
        window=int(rng.integers(4, 9)),
        locality=float(rng.uniform(0.25, 0.4)),
        shared_vars=shared,
        shared_ratio=float(rng.uniform(0.18, 0.32)),
        revisit=float(rng.uniform(0.1, 0.2)),
        rng=rng,
        name=name,
    )


def _scientific_sequence(
    n_vars: int, length: int, rng: np.random.Generator, name: str
) -> AccessSequence:
    """Numeric code: loop-nest kernels in sequence, some global accumulators.

    A solver executes several loop nests one after another; each nest has
    its own temporaries (disjoint across nests) around shared state. We
    mix a real kernel body with looped groups to model that pipeline.
    """
    if rng.random() < 0.35:
        seq = _kernel_sequence(length, rng, name)
        if seq is not None and seq.num_variables <= MAX_VARS:
            return seq
    vars_per_pattern = max(2, min(n_vars, 10))
    num_patterns = max(1, n_vars // vars_per_pattern)
    pattern_length = int(rng.integers(4, 2 * vars_per_pattern + 4))
    repeats = max(1, length // max(1, num_patterns * pattern_length))
    return looped_sequence(
        num_patterns, pattern_length, repeats, vars_per_pattern,
        rng=rng, name=name,
    ).with_name(name)


def _kernel_sequence(
    length: int, rng: np.random.Generator, name: str
) -> AccessSequence | None:
    """Instantiate a real loop kernel roughly matching the target length."""
    choice = rng.choice(
        ["fir", "iir", "dct", "matmul", "stencil", "viterbi", "gsm",
         "motion", "sobel", "conv"]
    )
    try:
        if choice == "fir":
            seq = k.fir_filter(taps=int(rng.integers(4, 16)),
                               samples=max(2, length // 40), name=name)
        elif choice == "iir":
            seq = k.iir_biquad(sections=int(rng.integers(1, 4)),
                               samples=max(2, length // 30), name=name)
        elif choice == "dct":
            seq = k.dct8(blocks=max(1, length // 60), name=name)
        elif choice == "matmul":
            seq = k.matmul(n=max(2, min(8, round(length ** (1 / 3)))), name=name)
        elif choice == "stencil":
            side = max(3, min(10, round((length / 18) ** 0.5) + 2))
            seq = k.stencil5(width=side, height=side, name=name)
        elif choice == "viterbi":
            seq = k.viterbi_trellis(states=int(rng.integers(2, 8)),
                                    steps=max(1, length // 40), name=name)
        elif choice == "gsm":
            seq = k.gsm_lpc(order=int(rng.integers(4, 10)),
                            frames=max(1, length // 90), name=name)
        elif choice == "sobel":
            side = max(3, min(9, round((length / 40) ** 0.5) + 2))
            seq = k.sobel3x3(width=side, height=side, name=name)
        elif choice == "conv":
            taps = int(rng.integers(3, 9))
            seq = k.conv1d(taps=taps,
                           samples=max(taps, length // (taps + 2)), name=name)
        else:
            seq = k.motion_estimation(block=int(rng.integers(2, 5)),
                                      search=int(rng.integers(1, 3)), name=name)
    except Exception:  # parameter combination out of a kernel's range
        return None
    return seq


def _stretch(
    seq: AccessSequence, target_length: int, rng: np.random.Generator
) -> AccessSequence:
    """Extend a sequence to ``target_length`` by appending phased traffic."""
    if len(seq) >= target_length:
        return seq
    extra = target_length - len(seq)
    tail = phased_sequence(
        num_phases=max(1, extra // 160),
        vars_per_phase=12,
        accesses_per_phase=min(extra, 160),
        shared_vars=4,
        rng=rng,
        name=seq.name + ".tail",
    )
    return concat_sequences([seq, tail], name=seq.name)
