"""Synthetic BioPerf-like workload generation.

BioPerf ships class A/B/C input datasets per application (the paper uses
class C). Those datasets are derived from SwissProt and Pfam, which we do
not have offline — so this module generates statistically similar
synthetic inputs: protein families produced by mutating a common ancestor
at controlled rates, plus unrelated background sequences. What the
microarchitectural study needs from the inputs — realistic residue
composition and *value-unpredictable* dynamic-programming score traffic —
is preserved by construction.

Everything is seeded and deterministic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.bio.alphabet import PROTEIN, Alphabet
from repro.bio.sequence import Sequence
from repro.errors import WorkloadError

#: Input-class scale factors, loosely mirroring BioPerf's A/B/C tiers.
#: Class D is our genome-scale extension: inputs (and the traces they
#: induce) far beyond what a monolithic in-memory run wants to hold,
#: exercised through the streaming pipeline (``repro.perf.stream``).
CLASS_SCALES = {"A": 0.25, "B": 0.5, "C": 1.0, "D": 4.0}


@dataclass(frozen=True)
class WorkloadSpec:
    """Sizes of one application's synthetic input set."""

    query_length: int
    database_sequences: int
    database_length: int
    family_size: int = 0
    mutation_rate: float = 0.3


#: Per-application class-C input shapes. Fasta's input is more than twice
#: the length of Clustalw's, as §VI notes.
CLASS_C_SPECS = {
    "blast": WorkloadSpec(query_length=220, database_sequences=60,
                          database_length=240, family_size=12,
                          mutation_rate=0.35),
    "clustalw": WorkloadSpec(query_length=180, database_sequences=16,
                             database_length=180, family_size=16,
                             mutation_rate=0.30),
    "fasta": WorkloadSpec(query_length=420, database_sequences=40,
                          database_length=420, family_size=10,
                          mutation_rate=0.35),
    "hmmer": WorkloadSpec(query_length=160, database_sequences=24,
                          database_length=150, family_size=10,
                          mutation_rate=0.25),
}


def _residue_sampler(alphabet: Alphabet, rng: random.Random):
    """Return a zero-argument callable sampling background residues."""
    # Imported here: it loads numpy, which the workload specs that the
    # accelerator lab reads on every run do not need.
    from repro.bio.statistics import background_frequencies

    freqs = background_frequencies(alphabet)
    symbols = [alphabet.symbol(code) for code in range(len(alphabet))]
    weighted = [
        (symbol, freq) for symbol, freq in zip(symbols, freqs) if freq > 0
    ]
    choices = [symbol for symbol, _ in weighted]
    weights = [freq for _, freq in weighted]

    def sample() -> str:
        return rng.choices(choices, weights)[0]

    return sample


def random_sequence(
    seq_id: str,
    length: int,
    alphabet: Alphabet = PROTEIN,
    seed: int | random.Random = 0,
) -> Sequence:
    """One background-composition random sequence."""
    if length < 1:
        raise WorkloadError(f"length must be >= 1, got {length}")
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    sample = _residue_sampler(alphabet, rng)
    return Sequence(seq_id, "".join(sample() for _ in range(length)), alphabet)


def mutate(
    parent: Sequence,
    seq_id: str,
    mutation_rate: float,
    indel_rate: float = 0.03,
    rng: random.Random | None = None,
) -> Sequence:
    """Derive a child sequence by point mutation plus short indels."""
    if not 0.0 <= mutation_rate <= 1.0:
        raise WorkloadError(f"mutation_rate must be in [0, 1], got {mutation_rate}")
    rng = rng or random.Random(0)
    sample = _residue_sampler(parent.alphabet, rng)
    out: list[str] = []
    for symbol in parent.residues:
        roll = rng.random()
        if roll < indel_rate / 2:
            continue  # deletion
        if roll < indel_rate:
            out.append(sample())  # insertion before the residue
        if rng.random() < mutation_rate:
            out.append(sample())
        else:
            out.append(symbol)
    if not out:
        out.append(sample())
    return Sequence(seq_id, "".join(out), parent.alphabet)


def make_family(
    name: str,
    size: int,
    length: int,
    mutation_rate: float,
    alphabet: Alphabet = PROTEIN,
    seed: int = 0,
) -> list[Sequence]:
    """A family of related sequences mutated from one ancestor."""
    if size < 1:
        raise WorkloadError(f"family size must be >= 1, got {size}")
    rng = random.Random(seed)
    ancestor = random_sequence(f"{name}_anc", length, alphabet, rng)
    members = [
        mutate(ancestor, f"{name}_{i}", mutation_rate, rng=rng)
        for i in range(size)
    ]
    return members


@dataclass(frozen=True)
class BlastInput:
    query: Sequence
    database: list[Sequence]


@dataclass(frozen=True)
class ClustalwInput:
    sequences: list[Sequence]


@dataclass(frozen=True)
class FastaInput:
    query: Sequence
    database: list[Sequence]


@dataclass(frozen=True)
class HmmerInput:
    query: Sequence
    families: list[list[Sequence]]


def _scaled(spec: WorkloadSpec, input_class: str) -> WorkloadSpec:
    try:
        scale = CLASS_SCALES[input_class]
    except KeyError:
        raise WorkloadError(
            f"unknown input class {input_class!r}; expected one of "
            f"{sorted(CLASS_SCALES)}"
        ) from None
    return WorkloadSpec(
        query_length=max(20, int(spec.query_length * scale)),
        database_sequences=max(4, int(spec.database_sequences * scale)),
        database_length=max(20, int(spec.database_length * scale)),
        family_size=max(4, int(spec.family_size * scale)),
        mutation_rate=spec.mutation_rate,
    )


def blast_input(input_class: str = "C", seed: int = 7) -> BlastInput:
    """Query + mixed database (one related family + background noise)."""
    spec = _scaled(CLASS_C_SPECS["blast"], input_class)
    rng = random.Random(seed)
    family = make_family(
        "fam", spec.family_size, spec.database_length,
        spec.mutation_rate, seed=seed,
    )
    query = mutate(family[0], "query", spec.mutation_rate, rng=rng)
    query = Sequence("query", query.residues[: spec.query_length], PROTEIN)
    noise = [
        random_sequence(f"bg_{i}", spec.database_length, PROTEIN, rng)
        for i in range(spec.database_sequences - spec.family_size)
    ]
    return BlastInput(query=query, database=family + noise)


def clustalw_input(input_class: str = "C", seed: int = 11) -> ClustalwInput:
    """One family to align (Clustalw aligns everything it is given)."""
    spec = _scaled(CLASS_C_SPECS["clustalw"], input_class)
    family = make_family(
        "seq", spec.family_size, spec.query_length, spec.mutation_rate,
        seed=seed,
    )
    return ClustalwInput(sequences=family)


def fasta_input(input_class: str = "C", seed: int = 13) -> FastaInput:
    """Long query + database; Fasta's input is the longest of the four."""
    spec = _scaled(CLASS_C_SPECS["fasta"], input_class)
    rng = random.Random(seed)
    family = make_family(
        "fam", spec.family_size, spec.database_length,
        spec.mutation_rate, seed=seed,
    )
    query = mutate(family[0], "query", spec.mutation_rate, rng=rng)
    noise = [
        random_sequence(f"bg_{i}", spec.database_length, PROTEIN, rng)
        for i in range(spec.database_sequences - spec.family_size)
    ]
    return FastaInput(query=query, database=family + noise)


#: Skewed codon usage for synthetic "coding" DNA: a handful of codons
#: carry most of the probability mass, like real prokaryotic genes.
_BIASED_CODONS = (
    "GCT", "GAA", "AAA", "CTG", "GGT", "GAT", "GTT", "ATC",
    "CGT", "ACC", "TTC", "CAG",
)


@dataclass(frozen=True)
class GenomeInput:
    """A synthetic genome with known embedded genes."""

    genome: "Sequence"
    genes: list[str]  # coding sequences, for training / truth
    gene_spans: list[tuple[int, int]]  # forward-strand offsets


def make_genome(
    n_genes: int = 6,
    gene_codons: int = 60,
    spacer: int = 120,
    seed: int = 23,
) -> GenomeInput:
    """Generate a genome: biased-codon genes separated by random DNA.

    Genes start with ATG, avoid in-frame stops, and end with TAA; the
    intergenic spacers are uniform random DNA. This gives a
    gene-finding workload where composition (not just ORF length)
    separates coding from background — what Glimmer's IMM exploits.
    """
    from repro.bio.alphabet import DNA

    if n_genes < 1 or gene_codons < 4:
        raise WorkloadError("need at least one gene of several codons")
    rng = random.Random(seed)
    stops = {"TAA", "TAG", "TGA"}

    def random_dna(length: int) -> str:
        return "".join(rng.choice("ACGT") for _ in range(length))

    parts: list[str] = []
    genes: list[str] = []
    spans: list[tuple[int, int]] = []
    cursor = 0
    for _ in range(n_genes):
        gap = random_dna(spacer + rng.randrange(40))
        parts.append(gap)
        cursor += len(gap)
        body = []
        for _ in range(gene_codons - 2):
            codon = rng.choice(_BIASED_CODONS)
            while codon in stops:  # defensive; the table has no stops
                codon = rng.choice(_BIASED_CODONS)
            body.append(codon)
        gene = "ATG" + "".join(body) + "TAA"
        genes.append(gene)
        spans.append((cursor, cursor + len(gene)))
        parts.append(gene)
        cursor += len(gene)
    parts.append(random_dna(spacer))
    return GenomeInput(
        genome=Sequence("genome", "".join(parts), DNA),
        genes=genes,
        gene_spans=spans,
    )


def hmmer_input(input_class: str = "C", seed: int = 17) -> HmmerInput:
    """Query sequence + several families to build a model database from."""
    spec = _scaled(CLASS_C_SPECS["hmmer"], input_class)
    rng = random.Random(seed)
    n_families = max(3, spec.database_sequences // spec.family_size)
    families = [
        make_family(
            f"fam{i}", spec.family_size, spec.database_length,
            spec.mutation_rate, seed=seed + i,
        )
        for i in range(n_families)
    ]
    query = mutate(families[0][0], "query", spec.mutation_rate, rng=rng)
    return HmmerInput(query=query, families=families)
