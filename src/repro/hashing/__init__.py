"""Hashing-based sample compressor (the FPE model's first module)."""
