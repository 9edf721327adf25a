"""A PowerPC-like mini-ISA with the paper's ``max``/``isel`` extensions.

Provides the instruction set, a program builder and text assembler, a
word-addressed memory, a functional interpreter, and dynamic-trace
records consumed by :mod:`repro.uarch`. Names are re-exported lazily
(:func:`repro.lazy.lazy_exports`): reading a stored trace does not load
the interpreter.
"""

from repro.lazy import lazy_exports

_EXPORTS = {
    ".assembler": ("assemble",),
    ".instructions": ("Instruction", "Op", "Unit", "validate"),
    ".interpreter": ("Machine", "run_program"),
    ".memory": ("Memory",),
    ".program": ("Program", "ProgramBuilder"),
    ".registers": ("CR_EQ", "CR_GT", "CR_LT", "RegisterFile"),
    ".tracestore": ("load_trace_columnar", "save_trace_v3"),
    ".trace": (
        "Trace", "TraceEvent", "TraceStats", "opcode_histogram",
        "trace_statistics",
    ),
}

__all__, __getattr__ = lazy_exports(__name__, _EXPORTS)
