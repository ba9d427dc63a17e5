"""Dedup / sketch / ANN / multimodal operator tests (beyond the DuckDB gate):
MinHash-LSH recall on crafted near-duplicates, SimHash Hamming locality,
IVF recall vs brute force, multimodal plumbing."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from conftest import force_buckets

from mpds_ray.pipelines import text
from mpds_ray.pipelines.text import (
    _shingles,
    minhash_signature,
    _splitmix64,
    simhash_batch,
    N_HASHES,
)
from mpds_ray.stages.multimodal import decode_image, sample_frames, synth_media_table

rng = np.random.default_rng(42)
SEEDS = _splitmix64(np.arange(1, N_HASHES + 1, dtype=np.uint64) * np.uint64(0x9E3779B9))


def jaccard(a, b):
    inter = np.intersect1d(a, b, assume_unique=True).size
    return inter / (a.size + b.size - inter)


class TestMinHash:
    def test_signature_similarity_estimates_jaccard(self):
        base = rng.integers(0, 50257, 300)
        near = base.copy()
        near[::10] = rng.integers(0, 50257, near[::10].size)  # ~10% perturbed
        sa, sb = _shingles(base), _shingles(near)
        true_j = jaccard(sa, sb)
        siga = minhash_signature(sa, SEEDS)
        sigb = minhash_signature(sb, SEEDS)
        est = (siga == sigb).mean()
        assert est == pytest.approx(true_j, abs=0.15)

    def test_lsh_finds_planted_dups(self, ray_session, tmp_path):
        """Plant near-duplicate docs in a corpus; the LSH candidate pass must
        surface the planted pair with high Jaccard."""
        words = np.array(["alpha", "beta", "gamma", "delta", "eps", "zeta", "eta", "theta"])
        texts = [" ".join(rng.choice(words, 60)) for _ in range(40)]
        dup = texts[0].split(" ")
        dup[3] = "changed"
        texts.append(" ".join(dup))  # doc 40 ~ doc 0
        df = pd.DataFrame(
            {"doc_id": np.arange(41, dtype=np.int64), "text": texts, "source": "s",
             "lang": "en", "n_chars": [len(t) for t in texts]}
        )
        d = tmp_path / "documents.parquet"
        pq.write_table(pa.Table.from_pandas(df), d)
        from mpds_ray.pipelines.text import MINHASH_THRESHOLD, minhash_dup_candidates

        assert MINHASH_THRESHOLD == 0.5
        out = minhash_dup_candidates(str(tmp_path))
        pairs = set(zip(out["doc_a"], out["doc_b"]))
        assert (0, 40) in pairs
        got = out.loc[(out["doc_a"] == 0) & (out["doc_b"] == 40), "jaccard"].iloc[0]
        assert got > 0.7

    def test_pairwise_jaccard_kernel_matches_loop(self):
        """The exchange-routed verify kernel (vectorized, no per-pair loop)
        must equal the naive per-pair intersect1d reference on random
        sorted-unique sets, including disjoint and identical pairs."""
        from mpds_ray.pipelines.text import _pairwise_jaccard

        sets = [
            np.unique(rng.integers(0, 200, rng.integers(1, 60)).astype(np.uint64))
            for _ in range(30)
        ]
        sets.append(sets[0].copy())  # identical pair target
        sets.append(np.array([10**6], dtype=np.uint64))  # disjoint target
        flat = np.concatenate(sets)
        offs = np.r_[0, np.cumsum([s.size for s in sets])]
        pa_idx = np.array([0, 3, 7, 0, 5, 30], dtype=np.int64)
        pb_idx = np.array([30, 4, 8, 31, 5, 31], dtype=np.int64)
        got = _pairwise_jaccard(flat, offs, pa_idx, pb_idx)
        want = np.array([jaccard(sets[i], sets[j]) for i, j in zip(pa_idx, pb_idx)])
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_pairwise_inter_chunks_match_one_pass(self, monkeypatch):
        """Chunking the verify kernel (bounded gather/sort allocations) must
        give exactly the one-pass counts, including a pair larger than a
        whole chunk."""
        from mpds_ray.pipelines import text

        sets = [
            np.unique(rng.integers(0, 300, rng.integers(1, 80)).astype(np.uint64))
            for _ in range(40)
        ]
        flat = np.concatenate(sets)
        offs = np.r_[0, np.cumsum([s.size for s in sets])]
        pa_idx = rng.integers(0, 40, 500)
        pb_idx = rng.integers(0, 40, 500)
        whole = text._pairwise_inter(flat, offs, pa_idx, pb_idx)
        monkeypatch.setattr(text, "PAIRWISE_CHUNK_VALUES", 50)
        chunked = text._pairwise_inter(flat, offs, pa_idx, pb_idx)
        for a, b in zip(whole, chunked):
            np.testing.assert_array_equal(a, b)
        want = [np.intersect1d(sets[i], sets[j]).size for i, j in zip(pa_idx, pb_idx)]
        np.testing.assert_array_equal(chunked[0], want)

    def test_containment_candidates_chunks_match_one_pass(self, monkeypatch):
        """The containment candidate kernel expands probe x posting rows in
        ranges of at most PAIRWISE_CHUNK_VALUES pairs (a hot shingle spans
        several ranges): the chunked output equals the one-pass output and a
        brute-force reference, and no index array exceeds the bound."""
        from mpds_ray.pipelines import text

        rows = []
        for doc in range(80):
            sh = np.unique(np.r_[0, rng.integers(1, 40, rng.integers(1, 12))])
            probe = rng.random(sh.size) < 0.5
            rows += [(int(s), doc, sh.size, bool(p)) for s, p in zip(sh, probe)]
        sh, did, size, probe = (np.array(c) for c in zip(*rows))
        tbl = pa.table({"shingle": sh.astype(np.int64), "doc_id": did.astype(np.int64),
                        "size": size.astype(np.int64), "is_probe": probe})
        tq = 499_999
        whole = text._containment_candidates(tbl, tq)

        spans = []
        orig = text._probe_pairs

        def spy(*args):
            for ii, jj in orig(*args):
                spans.append((ii.size, jj.size))
                yield ii, jj

        monkeypatch.setattr(text, "PAIRWISE_CHUNK_VALUES", 50)
        monkeypatch.setattr(text, "_probe_pairs", spy)
        chunked = text._containment_candidates(tbl, tq)
        assert chunked.equals(whole)
        # shingle 0 is in all 80 docs: its probes' groups exceed one range
        assert len(spans) > 1 and max(max(s) for s in spans) <= 50
        want = {
            (a, b)
            for s_a, a, z_a, p_a in rows if p_a
            for s_b, b, z_b, _ in rows
            if s_a == s_b and a != b and z_b * 1_000_000 >= tq * z_a
        }
        got = set(zip(chunked["doc_a"].to_pylist(), chunked["doc_b"].to_pylist()))
        assert got == want and chunked.num_rows == len(want)


def _band_pairs_loop(tbl: pa.Table) -> set:
    """The per-group loop ``_band_pairs`` replaced, kept as its oracle."""
    df = tbl.to_pandas().drop_duplicates()
    out = set()
    for _, g in df.groupby(["band", "band_hash"], sort=False):
        ids = np.unique(g["doc_id"].to_numpy())
        if ids.size < 2:
            continue
        ii, jj = np.triu_indices(ids.size, k=1)
        out |= set(zip(ids[ii].tolist(), ids[jj].tolist()))
    return out


def _prefix_candidates_loop(tbl: pa.Table, tq_prune: int) -> set:
    """The per-group loop ``_prefix_candidates`` replaced, kept as its
    oracle. It paired a duplicated (shingle, doc) row with itself; real
    prefix rows are distinct per (doc, shingle), so self-pairs are dropped."""
    sh = tbl["shingle"].to_numpy()
    did = tbl["doc_id"].to_numpy()
    sz = tbl["size"].to_numpy()
    order = np.lexsort((did, sh))
    sh, did, sz = sh[order], did[order], sz[order]
    starts = np.r_[0, np.flatnonzero(sh[1:] != sh[:-1]) + 1]
    counts = np.diff(np.r_[starts, sh.size])
    multi = counts >= 2
    out = set()
    for s0, c in zip(starts[multi], counts[multi]):
        ids = did[s0 : s0 + c]
        sizes = sz[s0 : s0 + c]
        ii, jj = np.triu_indices(int(c), k=1)
        sa, sb = sizes[ii].astype(np.int64), sizes[jj].astype(np.int64)
        ok = np.minimum(sa, sb) * 1_000_000 >= tq_prune * np.maximum(sa, sb)
        out |= set(zip(ids[ii[ok]].tolist(), ids[jj[ok]].tolist()))
    return {(a, b) for a, b in out if a != b}


def _keyed_rows(gen, n_keys: int) -> tuple[np.ndarray, np.ndarray]:
    """(key, doc_id) rows: random shared keys, singleton keys, duplicated
    (key, doc) rows and one hot key held by 300 docs, in shuffled order."""
    key = np.r_[
        gen.integers(0, n_keys, 600),  # shared keys
        np.arange(10_000, 10_200),  # singletons
        np.full(300, 99_999),  # the hot key
    ]
    doc = np.r_[gen.integers(0, 400, 600), gen.integers(0, 400, 200), gen.permutation(300)]
    dup = gen.integers(0, key.size, 150)
    key, doc = np.r_[key, key[dup]], np.r_[doc, doc[dup]]
    perm = gen.permutation(key.size)
    return key[perm].astype(np.int64), doc[perm].astype(np.int64)


class TestCandidateKernels:
    """The vectorized candidate reduces equal the per-group loops they
    replaced, as sets of pairs, and stay equal when the pair expansion runs
    in ranges of at most PAIRWISE_CHUNK_VALUES pairs."""

    @staticmethod
    def _spy_ranges(monkeypatch, text):
        spans = []
        orig = text._probe_pairs

        def spy(*args):
            for ii, jj in orig(*args):
                spans.append(ii.size)
                yield ii, jj

        monkeypatch.setattr(text, "PAIRWISE_CHUNK_VALUES", 50)
        monkeypatch.setattr(text, "_probe_pairs", spy)
        return spans

    @staticmethod
    def _pairs(tbl: pa.Table) -> list:
        return list(zip(tbl["doc_a"].to_pylist(), tbl["doc_b"].to_pylist()))

    def _check(self, got: pa.Table, want: set) -> None:
        pairs = self._pairs(got)
        assert set(pairs) == want and len(pairs) == len(want)
        assert pairs == sorted(pairs) and all(a < b for a, b in pairs)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_band_pairs_match_group_loop(self, monkeypatch, seed):
        from mpds_ray.pipelines import text

        gen = np.random.default_rng(seed)
        key, doc = _keyed_rows(gen, 120)
        tbl = pa.table({"band": key % 4, "band_hash": key // 4, "doc_id": doc})
        want = _band_pairs_loop(tbl)
        whole = text._band_pairs(tbl)
        self._check(whole, want)
        spans = self._spy_ranges(monkeypatch, text)
        chunked = text._band_pairs(tbl)
        assert chunked.equals(whole)
        assert len(spans) > 1 and max(spans) <= 50

    @pytest.mark.parametrize("seed", [0, 1])
    def test_prefix_candidates_match_group_loop(self, monkeypatch, seed):
        from mpds_ray.pipelines import text

        gen = np.random.default_rng(seed)
        key, doc = _keyed_rows(gen, 120)
        doc_size = gen.integers(1, 40, 400)
        tbl = pa.table({"shingle": key, "doc_id": doc, "size": doc_size[doc]})
        tq = 499_999
        want = _prefix_candidates_loop(tbl, tq)
        whole = text._prefix_candidates(tbl, tq)
        self._check(whole, want)
        # the size filter rejects some of the hot key's pairs
        assert 0 < sum(1 for a, b in want if a < 300 and b < 300) < 300 * 299 // 2
        spans = self._spy_ranges(monkeypatch, text)
        chunked = text._prefix_candidates(tbl, tq)
        assert chunked.equals(whole)
        assert len(spans) > 1 and max(spans) <= 50

    def test_empty_and_singleton_tables(self):
        from mpds_ray.pipelines import text

        empty = np.zeros(0, dtype=np.int64)
        band = pa.table({"band": empty, "band_hash": empty, "doc_id": empty})
        assert text._band_pairs(band).equals(text.EMPTY_PAIR_TABLE)
        one = pa.table({"shingle": [7, 7, 8], "doc_id": [3, 3, 4], "size": [5, 5, 5]})
        assert text._prefix_candidates(one, 499_999).equals(text.EMPTY_PAIR_TABLE)


class TestSimHash:
    def test_deterministic(self):
        toks = [rng.integers(0, 50257, 50) for _ in range(5)]
        a = simhash_batch(toks)
        b = simhash_batch([t.copy() for t in toks])
        np.testing.assert_array_equal(a, b)

    def test_hamming_locality(self):
        base = rng.integers(0, 50257, 400)
        near = base.copy()
        near[:8] = rng.integers(0, 50257, 8)
        far = rng.integers(0, 50257, 400)
        h = simhash_batch([base, near, far])
        d_near = bin(int(h[0]) ^ int(h[1])).count("1")
        d_far = bin(int(h[0]) ^ int(h[2])).count("1")
        assert d_near < d_far


class TestKnn:
    def test_ivf_recall(self, ray_session, sf_dir):
        from mpds_ray.pipelines.knn import knn_cosine_top10, knn_ivf_top10

        brute = knn_cosine_top10(sf_dir)
        ivf = knn_ivf_top10(sf_dir)
        recall = len(set(brute["vec_id"]) & set(ivf["vec_id"])) / len(brute)
        assert recall >= 0.5  # 2 of 8 cells probed; >=50% of true top-10

    def test_brute_force_is_exact(self, ray_session, sf_dir):
        from mpds_ray.pipelines.knn import knn_cosine_top10, _query_vector

        got = knn_cosine_top10(sf_dir)
        emb = pq.read_table(f"{sf_dir}/embeddings.parquet").to_pandas()
        m = np.stack([np.asarray(v, dtype=np.float64) for v in emb["embedding"]])
        q = _query_vector(sf_dir)
        sims = (m @ (q / np.linalg.norm(q))) / np.linalg.norm(m, axis=1)
        emb["cos_sim"] = np.round(sims, 6)
        want = (
            emb[emb["vec_id"] != 0]
            .sort_values(["cos_sim", "vec_id"], ascending=[False, True])
            .head(10)
        )
        np.testing.assert_array_equal(got["vec_id"].to_numpy(), want["vec_id"].to_numpy())


class TestMultimodal:
    def test_decode_raises_on_undecodable_format(self):
        # random bytes: neither netpbm magic
        with pytest.raises(NotImplementedError, match="magic"):
            decode_image(synth_media_table(4))

    def test_netpbm_decode_roundtrip(self):
        from mpds_ray.stages.multimodal import decode_netpbm, synth_ppm_payload

        buf = synth_ppm_payload(13, 7, seed=5)
        img = decode_netpbm(buf)
        assert img.shape == (7, 13, 3) and img.dtype == np.uint8
        want = np.random.default_rng(5).integers(0, 256, (7, 13, 3), dtype=np.uint8)
        np.testing.assert_array_equal(img, want)
        # header comments survive parsing
        img2 = decode_netpbm(b"P5\n# c\n2 2\n255\n" + bytes([1, 2, 3, 4]))
        np.testing.assert_array_equal(img2, np.array([[1, 2], [3, 4]], dtype=np.uint8))

    def test_wav_decode_roundtrip(self):
        from mpds_ray.stages.multimodal import decode_wav, synth_wav_payload

        buf = synth_wav_payload(1600, 16_000, seed=3)
        x, sr = decode_wav(buf)
        assert sr == 16_000 and x.shape == (1600, 1)
        # 0.5-amplitude sine + small noise -> rms ~ 0.5/sqrt(2)
        assert abs(float(np.sqrt((x**2).mean())) - 0.3536) < 0.03

    def test_real_decode_pipeline(self, ray_session):
        """REAL codecs end-to-end, one task per fixed slice: PPM images
        decode to true (h, w) and pixel means; WAV audio decodes to true
        duration and RMS."""
        import pyarrow.compute as pc

        from mpds_ray.pipelines.media import decode_rows
        from mpds_ray.stages.multimodal import decode_audio, decode_netpbm, decode_wav

        t = synth_media_table(36, seed=9, real=True)
        imgs = t.filter(pc.equal(t["kind"], "image"))
        out = decode_rows(decode_image, imgs, "test")
        assert len(out) == imgs.num_rows > 0
        ref = decode_netpbm(bytes(imgs["payload"][0].as_py()))
        got0 = out.loc[out["media_id"] == imgs["media_id"][0].as_py()].iloc[0]
        assert got0["decoded_mean"] == pytest.approx(float(ref.mean()), abs=1e-6)
        assert got0["thumb_height"] == min(ref.shape[0], 64)

        auds = t.filter(pc.equal(t["kind"], "audio"))
        aout = decode_rows(decode_audio, auds, "test")
        assert len(aout) == auds.num_rows > 0
        x, sr = decode_wav(bytes(auds["payload"][0].as_py()))
        got0 = aout.loc[aout["media_id"] == auds["media_id"][0].as_py()].iloc[0]
        assert got0["duration_s"] == pytest.approx(x.shape[0] / sr, abs=1e-6)
        assert got0["rms"] == pytest.approx(float(np.sqrt((x**2).mean())), abs=1e-6)
        assert got0["sample_rate"] == 16_000

    def test_y4m_roundtrip(self):
        from mpds_ray.stages.multimodal import decode_y4m, synth_y4m_payload

        buf = synth_y4m_payload(12, 10, 5, seed=3)
        frames, w, h = decode_y4m(buf)
        assert (frames.shape, w, h) == ((5, 10, 12), 12, 10)
        # frames differ (moving gradient) and are deterministic
        assert not np.array_equal(frames[0], frames[1])
        frames2, _, _ = decode_y4m(synth_y4m_payload(12, 10, 5, seed=3))
        assert np.array_equal(frames, frames2)
        # hand-built mono stream: known luma bytes decode exactly
        mono = b"YUV4MPEG2 W2 H2 F25:1 Cmono\nFRAME\n" + bytes([10, 20, 30, 40])
        f, w2, h2 = decode_y4m(mono)
        assert np.array_equal(f[0], [[10, 20], [30, 40]])
        with pytest.raises(ValueError):
            decode_y4m(b"RIFFxxxx")

    def test_frame_sampler_real_decode(self):
        from mpds_ray.stages.multimodal import synth_y4m_payload

        b = pa.table(
            {
                "media_id": [1, 2],
                "payload": [
                    synth_y4m_payload(8, 8, 10, seed=1),
                    synth_y4m_payload(6, 4, 2, seed=2),
                ],
            }
        )
        out = sample_frames(b)
        # SAMPLE_FRAMES = 4 evenly-spaced distinct frames of 10; only 2 exist for media 2
        assert list(out[out.media_id == 1]["frame_idx"]) == [0, 2, 5, 7]
        assert list(out[out.media_id == 2]["frame_idx"]) == [0, 1]
        assert (out[out.media_id == 1]["n_frames_total"] == 10).all()
        # luma stats match a direct recompute
        from mpds_ray.stages.multimodal import decode_y4m

        frames, _, _ = decode_y4m(b["payload"][0].as_py())
        row = out[(out.media_id == 1) & (out.frame_idx == 2)].iloc[0]
        assert row["y_mean"] == round(float(frames[2].astype(np.float64).mean()), 6)

    def test_frame_sampler_unknown_codec_raises(self):
        b = pa.table({"media_id": [1], "payload": [b"\x00\x01\x02\x03" * 64]})
        with pytest.raises(NotImplementedError, match="magic"):
            sample_frames(b)


class TestSegmentVectorizedParity:
    """The segment-vectorized text kernels must equal the scalar references
    doc-for-doc, including short-doc (<3 tokens) and empty-doc edges."""

    def _docs(self):
        import numpy as np

        rng = np.random.default_rng(11)
        docs = [rng.integers(0, 50257, rng.integers(3, 40)).astype(np.int64)
                for _ in range(30)]
        docs += [np.array([5], dtype=np.int64), np.array([7, 9], dtype=np.int64),
                 np.array([], dtype=np.int64)]
        return docs

    def _flat(self, docs):
        import numpy as np

        flat = np.concatenate([d for d in docs]).astype(np.uint64) if docs else np.array([], dtype=np.uint64)
        offs = np.r_[0, np.cumsum([len(d) for d in docs])].astype(np.int64)
        return flat, offs

    def test_shingles_flat_matches_scalar(self):
        import numpy as np

        from mpds_ray.pipelines.text import _shingles, _shingles_flat, _unique_per_segment

        docs = self._docs()
        flat, offs = self._flat(docs)
        sh, sh_offs = _shingles_flat(flat, offs)
        u, seg, n_uniq = _unique_per_segment(sh, sh_offs)
        per_doc = np.split(u, np.cumsum(n_uniq)[:-1])
        for d, got in zip(docs, per_doc):
            want = np.unique(_shingles(d))  # scalar ref (uniqued for parity)
            assert np.array_equal(np.sort(got), want), d

    def test_simhash_flat_matches_scalar(self):
        import numpy as np

        from mpds_ray.pipelines.text import simhash_batch, simhash_flat

        docs = [d for d in self._docs() if len(d)]
        flat, offs = self._flat(docs)
        got = simhash_flat(flat, offs)
        want = simhash_batch([d for d in docs])
        assert np.array_equal(got, want)

    def test_minhash_signature_vector_parity(self):
        """The banded sig path inside sig_batch equals per-doc minhash_signature."""
        import numpy as np

        from mpds_ray.pipelines.text import (
            N_HASHES,
            _segment_reduceat,
            _shingles,
            _shingles_flat,
            _splitmix64,
            minhash_signature,
        )

        seeds = _splitmix64(np.arange(1, N_HASHES + 1, dtype=np.uint64) * np.uint64(0x9E3779B9))
        docs = self._docs()
        flat, offs = self._flat(docs)
        sh, sh_offs = _shingles_flat(flat, offs)
        sig = np.empty((N_HASHES, len(docs)), dtype=np.uint64)
        for s_i in range(N_HASHES):
            sig[s_i] = _segment_reduceat(
                np.minimum, _splitmix64(sh ^ seeds[s_i]), sh_offs, np.iinfo(np.uint64).max
            )
        for i, d in enumerate(docs):
            want = minhash_signature(_shingles(d), seeds)
            assert np.array_equal(sig[:, i], want), i


def test_similar_pairs_exact_complete_vs_brute(ray_session, tmp_path, monkeypatch):
    """The prefix-filter join must find EVERY pair with shingle-Jaccard >=
    t (lossless, unlike LSH): compare to a scalar brute-force all-pairs
    reference on a corpus salted with near-dup chains."""
    from mpds_ray.pipelines.text import _shingles, similar_pairs_exact
    from mpds_ray.tokenize import tokenize_words_py

    rng2 = np.random.default_rng(11)
    vocab = [chr(ord("a") + i) + chr(ord("a") + j) for i in range(26) for j in range(5)]
    texts = []
    for i in range(40):
        words = list(rng2.choice(vocab, 30))
        texts.append(" ".join(words))
        if i % 4 == 0:  # near-dup: mutate a few words -> J straddles 0.5
            mut = words.copy()
            for p in rng2.integers(0, 30, rng2.integers(1, 8)):
                mut[p] = str(rng2.choice(vocab))
            texts.append(" ".join(mut))
    df = pd.DataFrame(
        {"doc_id": np.arange(len(texts), dtype=np.int64), "text": texts, "source": "s"}
    )
    pq.write_table(pa.Table.from_pandas(df), tmp_path / "documents.parquet")

    # scalar reference: per-doc shingle set via the scalar tokenizer
    sets = []
    for t in texts:
        toks = np.array([tokenize_words_py(w) for w in t.split(" ")], dtype=np.int64)
        sets.append(set(_shingles(toks).tolist()))
    # threshold 0.3 is NOT binary-representable — regression for the float
    # ceil/size-filter bugs (np.ceil(0.07*100)==8 class); 0.5 is the default
    for t in (0.5, 0.3):
        want = set()
        for i in range(len(sets)):
            for j in range(i + 1, len(sets)):
                inter = len(sets[i] & sets[j])
                if inter and inter / (len(sets[i]) + len(sets[j]) - inter) >= t:
                    want.add((i, j))
        assert want, "fixture must plant qualifying pairs"

        monkeypatch.setattr(text, "SSJOIN_THRESHOLD", t)
        out = similar_pairs_exact(str(tmp_path))
        got = set(zip(out["doc_a"], out["doc_b"]))
        assert got == want
        assert (out["jaccard"] >= t).all()


def test_repeated_ngram_stats_planted(ray_session, tmp_path, tasks, monkeypatch):
    from mpds_ray.pipelines.text import repeated_ngram_stats

    # tokenizer hashes (first char, word len): every word below differs in
    # its FIRST character, so all tokens are distinct (fixture rule)
    w = [chr(ord("a") + i) * 2 for i in range(26)]  # aa bb cc ...
    texts = [
        " ".join(w[0:10]),              # doc0: 3 grams; gram@0 shared w/ doc1
        " ".join(w[0:8] + w[20:22]),    # doc1: 3 grams; gram@0 == doc0 gram@0
        " ".join(w[10:18] + w[10:18]),  # doc2: 9 grams; gram@0 == gram@8 (self)
        " ".join(w[18:20]),             # doc3: < k tokens -> no output row
    ]
    df = pd.DataFrame(
        {"doc_id": np.arange(4, dtype=np.int64), "text": texts, "source": "s"}
    )
    pq.write_table(pa.Table.from_pandas(df), tmp_path / "documents.parquet")
    force_buckets(monkeypatch, 4)
    out = repeated_ngram_stats(str(tmp_path)).set_index("doc_id")
    assert tasks["_reduce_bucket"] == 4
    assert list(out.index) == [0, 1, 2]
    assert out.loc[0, "n_grams"] == 3 and out.loc[0, "n_repeated"] == 1
    assert out.loc[1, "n_grams"] == 3 and out.loc[1, "n_repeated"] == 1
    assert out.loc[2, "n_grams"] == 9 and out.loc[2, "n_repeated"] == 2
    assert out.loc[2, "repeated_frac"] == pytest.approx(round(2 / 9, 6))


def test_doc_repetition_ratio_hand_values(ray_session, tmp_path):
    from mpds_ray.pipelines.text import doc_repetition_ratio

    texts = [
        "a b a b a b",          # trigrams aba,bab,aba,bab -> 4 total, 2 distinct -> 0.5
        "one two three four",   # 2 distinct trigrams of 2 -> 0.0
        "x y",                  # < 3 tokens -> 0.0 by definition
        "w w w w w",            # all trigrams identical -> 1 distinct of 3 -> 2/3
    ]
    df = pd.DataFrame(
        {"doc_id": np.arange(4, dtype=np.int64), "text": texts, "source": "s",
         "lang": "en", "n_chars": [len(t) for t in texts]}
    )
    pq.write_table(pa.Table.from_pandas(df), tmp_path / "documents.parquet")
    out = doc_repetition_ratio(str(tmp_path)).to_pandas().sort_values("doc_id")
    got = dict(zip(out.doc_id, out.rep_ratio))
    assert got[0] == pytest.approx(0.5)
    assert got[1] == 0.0
    assert got[2] == 0.0
    assert got[3] == pytest.approx(round(2 / 3, 6))


def test_unigram_logprob_reference(ray_session, tmp_path):
    """Distributed two-pass unigram LM == in-process NumPy reference on the
    same tokenizer output; the repetitive (common-token) doc must score
    higher than the diverse one."""
    from mpds_ray.pipelines.text import _flat_tokens, unigram_logprob
    from mpds_ray.tokenize import VOCAB, tokenize_batch

    texts = ["common common common common", "rare words all different here"]
    df = pd.DataFrame(
        {"doc_id": np.arange(2, dtype=np.int64), "text": texts, "source": "s",
         "lang": "en", "n_chars": [len(t) for t in texts]}
    )
    pq.write_table(pa.Table.from_pandas(df), tmp_path / "documents.parquet")
    out = unigram_logprob(str(tmp_path)).to_pandas().sort_values("doc_id")

    flat, offs = _flat_tokens(tokenize_batch(pa.table(
        {"doc_id": df.doc_id.to_numpy(), "text": texts, "source": ["s", "s"]}
    )))
    counts = np.bincount(flat.astype(np.int64), minlength=VOCAB)
    lp = np.log((counts + 1.0) / (counts.sum() + VOCAB))
    exp = [round(lp[flat[offs[i]:offs[i + 1]].astype(np.int64)].mean(), 6)
           for i in range(2)]
    assert list(out.mean_logprob) == pytest.approx(exp, abs=1e-9)
    assert out.mean_logprob.iloc[0] > out.mean_logprob.iloc[1]


def test_contained_pairs_exact_complete_vs_brute(ray_session, tmp_path, monkeypatch):
    """The containment join must find EVERY ordered pair with
    round(|Sa∩Sb|/|Sa|, 6) >= t — including near-SUBSET pairs whose
    Jaccard is far below t (the asymmetric case the symmetric join
    misses by design)."""
    from mpds_ray.pipelines.text import _shingles, contained_pairs_exact
    from mpds_ray.tokenize import tokenize_words_py

    rng = np.random.default_rng(23)
    vocab = [chr(ord("a") + i) + chr(ord("a") + j) for i in range(26) for j in range(5)]
    texts = []
    for i in range(30):
        words = list(rng.choice(vocab, 40))
        texts.append(" ".join(words))
        if i % 5 == 0:
            # plant a SHORT near-subset: 12 consecutive words of the long
            # doc -> containment(short -> long) ~ 1.0, Jaccard ~ 0.25
            texts.append(" ".join(words[3:15]))
    df = pd.DataFrame(
        {"doc_id": np.arange(len(texts), dtype=np.int64), "text": texts, "source": "s"}
    )
    pq.write_table(pa.Table.from_pandas(df), tmp_path / "documents.parquet")

    sets = []
    for t in texts:
        toks = np.array([tokenize_words_py(w) for w in t.split(" ")], dtype=np.int64)
        sets.append(set(_shingles(toks).tolist()))
    verified_at = []
    verify = text._verify_pairs_exact
    monkeypatch.setattr(text, "_verify_pairs_exact", lambda shards, refs, t, metric: (
        verified_at.append(t) or verify(shards, refs, t, metric=metric)))
    for thr in (0.5, 0.8):
        want = set()
        for i in range(len(sets)):
            for j in range(len(sets)):
                if i == j or not sets[i]:
                    continue
                c = len(sets[i] & sets[j]) / len(sets[i])
                if round(c, 6) >= thr:
                    want.add((i, j))
        assert want, "fixture must plant qualifying ordered pairs"
        # the planted subset pairs must be among them at thr=0.8
        if thr == 0.8:
            assert any(a > b for (a, b) in want), "subset (short->long) pair missing"

        monkeypatch.setattr(text, "CONTAIN_THRESHOLD", thr)
        out = contained_pairs_exact(str(tmp_path))
        got = set(zip(out["doc_a"], out["doc_b"]))
        assert got == want
        # ordered semantics: containment is NOT symmetric on the planted
        # subset pairs (short in long, not vice versa)
        if thr == 0.8:
            asym = [(a, b) for (a, b) in want if (b, a) not in want]
            assert asym
    assert verified_at == [0.5, 0.8]
