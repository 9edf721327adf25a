"""Bioinformatics substrate: the four BioPerf sequence-analysis apps.

This package reimplements, in pure Python, every algorithm the paper
characterises — Blast's seeded heuristic search, Fasta's ktup heuristic
and exhaustive ssearch, Clustalw's progressive multiple alignment, and
Hmmer's profile-HMM scoring — plus the shared machinery (alphabets,
FASTA I/O, substitution matrices, pairwise DP, Karlin–Altschul
statistics, synthetic workload generation). Names are re-exported
lazily (:func:`repro.lazy.lazy_exports`), so a module that needs only
the workload specs does not load numpy.
"""

from repro.lazy import lazy_exports

_EXPORTS = {
    ".alphabet": ("DNA", "PROTEIN", "Alphabet", "guess_alphabet"),
    ".banded": ("ExtensionResult", "gapped_extension", "xdrop_extend"),
    ".blast": (
        "BlastDatabase", "BlastHit", "BlastParameters", "BlastSearch",
        "Hsp", "blastn", "blastn_parameters", "blastp",
    ),
    ".fasta_io": (
        "format_fasta", "parse_fasta", "parse_fasta_text", "read_fasta",
        "write_fasta",
    ),
    ".fastatool": ("FastaHit", "SsearchHit", "fasta_search", "ssearch"),
    ".genefind": (
        "GenePrediction", "InterpolatedMarkovModel", "Orf", "find_orfs",
        "glimmer", "reverse_complement",
    ),
    ".phylo": (
        "ParsimonyResult", "fitch_score", "parsimony_search", "phylip",
    ),
    ".guidetree": ("TreeNode", "neighbour_joining", "upgma"),
    ".hmm": ("ProfileHmm", "build_hmm", "forward_score", "viterbi_score"),
    ".hmmer": ("HmmHit", "hmmpfam", "hmmsearch"),
    ".kmer": ("KmerIndex", "neighbourhood", "shared_kmer_count"),
    ".msa": (
        "Msa", "clustalw", "iterative_refine", "pairwise_distance_matrix",
        "sum_of_pairs_score",
    ),
    ".pairwise": (
        "Alignment", "needleman_wunsch", "needleman_wunsch_score",
        "smith_waterman", "smith_waterman_score",
    ),
    ".scoring": (
        "BLOSUM62", "PAM250", "GapPenalties", "SubstitutionMatrix",
        "dna_matrix",
    ),
    ".sequence": ("Sequence",),
    ".statistics": ("KarlinAltschulParams", "karlin_altschul_params"),
    ".treedist": (
        "bipartitions", "normalised_robinson_foulds", "robinson_foulds",
    ),
}

__all__, __getattr__ = lazy_exports(__name__, _EXPORTS)
