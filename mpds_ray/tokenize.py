"""Deterministic tokenizer: documents(text) -> tokens table.

The engine's primary input is a pre-tokenized table (BASELINE.json
input_hint: ``doc_id, tokens:list<int32>, n_tok, source``). The testdata
ships `documents(text)` instead, so a pinned, SQL-replicable tokenization
derives the tokens table from it deterministically:

    token(word) = (ascii(first_char(word)) * 256 + len(word)) % 50257

Words are single-space splits (the synthetic corpus is clean ASCII). The
DuckDB equivalent (used by the correctness oracle) is ``TOKENS_SQL_EXPR``.
This is a stand-in for a real BPE tokenizer — the engine only cares that
tokens are an opaque int32 list that must pass through byte-identical.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

VOCAB = 50257

TOKENS_SQL_EXPR = (
    "list_transform(string_split(text, ' '), "
    "w -> CAST((ascii(w) * 256 + length(w)) % 50257 AS INTEGER))"
)


def tokenize_words(words: pa.Array) -> np.ndarray:
    """token id per word — zero-copy over the Arrow string buffers."""
    words = words.combine_chunks() if isinstance(words, pa.ChunkedArray) else words
    # operate on the raw UTF-8 buffer: first byte + byte length (ASCII corpus)
    offs = np.frombuffer(words.buffers()[1], dtype=np.int32)
    offs = offs[words.offset : words.offset + len(words) + 1]
    data = np.frombuffer(words.buffers()[2], dtype=np.uint8)
    first = data[offs[:-1]].astype(np.int64)
    length = np.diff(offs).astype(np.int64)
    return ((first * 256 + length) % VOCAB).astype(np.int32)


def tokenize_batch(batch: pa.Table) -> pa.Table:
    """documents batch -> tokens batch (doc_id, tokens, n_tok, source).
    Vectorized: split via pyarrow, hash via NumPy over the flat word buffer."""
    text = batch.column("text")
    text = text.combine_chunks() if isinstance(text, pa.ChunkedArray) else text
    words = pc.split_pattern(text, " ")
    words = words.combine_chunks() if isinstance(words, pa.ChunkedArray) else words
    flat = words.flatten()
    tok = tokenize_words(flat)
    offsets = pc.subtract(words.offsets, words.offsets[0]).cast(pa.int32())
    tokens = pa.ListArray.from_arrays(offsets, pa.array(tok, type=pa.int32()))
    n_tok = pc.list_value_length(tokens).cast(pa.int32())
    cols = {
        "doc_id": batch["doc_id"],
        "tokens": tokens,
        "n_tok": n_tok,
        "source": batch["source"],
    }
    return pa.table(cols)


def tokenize_words_py(word: str) -> int:
    """Scalar reference implementation (tests only)."""
    return (ord(word[0]) * 256 + len(word)) % VOCAB
