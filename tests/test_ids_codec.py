import base64

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from owlcrawler_ray.functions import codec, ids


def test_doc_id_matches_go_urlencoding():
    # Go base64.URLEncoding keeps padding; spot values precomputed
    assert ids.doc_id("http://a.test/") == base64.urlsafe_b64encode(
        b"http://a.test/"
    ).decode()
    assert ids.doc_id("http://a.test/") == "aHR0cDovL2EudGVzdC8="
    assert ids.seed_doc_id("x") == "site-eA=="


@given(st.text(min_size=0, max_size=200))
@settings(max_examples=200, deadline=None)
def test_doc_id_roundtrip(url):
    assert ids.decode_doc_id(ids.doc_id(url)) == url
    assert ids.decode_doc_id(ids.seed_doc_id(url)) == url


def test_url_hash_stable_and_batch_consistent():
    urls = [f"http://h{i}.test/p{i}" for i in range(100)]
    batch = ids.url_hash64_many(urls)
    assert batch.dtype == np.uint64
    for i in (0, 17, 99):
        assert int(batch[i]) == ids.url_hash64(urls[i])
    assert ids.url_hash64("http://a.test/") == ids.url_hash64("http://a.test/")
    assert ids.url_hash64("a") != ids.url_hash64("b")


def test_canonicalize_identity_in_parity_mode():
    u = "HTTP://Host.TEST:80/Path?q=1#frag"
    assert ids.canonicalize(u) == u
    assert ids.canonicalize(u, enabled=True) == "http://host.test/Path?q=1"


@pytest.mark.parametrize("fmt", ["png", "jpeg", "webp"])
def test_codec_roundtrip_and_psnr(fmt):
    pix = codec.synth_pixels("img-1", 64, 48)
    assert pix.shape == (48, 64, 3)
    buf = codec.encode(pix, fmt)
    out, got_fmt, w, h = codec.decode(buf)
    assert (got_fmt, w, h) == (fmt, 64, 48)
    assert out.shape == pix.shape
    if fmt == "png":
        assert np.array_equal(out, pix)
    else:
        p = codec.psnr(pix, out)
        assert p >= 40.0, f"{fmt} PSNR {p} below the 40dB invariant"


def test_synth_pixels_deterministic():
    a = codec.synth_pixels("same-id", 32, 32)
    b = codec.synth_pixels("same-id", 32, 32)
    c = codec.synth_pixels("other-id", 32, 32)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_phash_properties():
    a = codec.synth_pixels("ph-1", 64, 64)
    h1 = codec.phash64(a)
    assert np.iinfo(np.int64).min <= h1 <= np.iinfo(np.int64).max
    # identical image -> identical hash
    assert codec.phash64(a.copy()) == h1
    # lossy re-encode -> small hamming distance
    lossy, *_ = codec.decode(codec.encode(a, "jpeg"))
    assert codec.hamming64(h1, codec.phash64(lossy)) <= 6
    # different image -> large distance
    b = codec.synth_pixels("ph-2", 64, 64)
    assert codec.hamming64(h1, codec.phash64(b)) > 10


def test_decode_rejects_foreign_bytes():
    with pytest.raises(ValueError):
        codec.decode(b"\x89PNG\r\n\x1a\nnotours")


def test_decode_rejects_corrupt_shift_byte():
    """encode() only writes shifts in {0,1,2}; a payload whose shift
    byte is flipped past 7 must raise (the documented single exception
    type), not decode to garbage pixels."""
    pix = codec.synth_pixels("shift-corrupt", 8, 8)
    buf = bytearray(codec.encode(pix, "jpeg"))
    buf[5] = 200
    with pytest.raises(ValueError, match="shift"):
        codec.decode(bytes(buf))


def test_codec_roundtrip_property():
    """Property: any uint8 RGB image of any small dimensions round-trips
    through every codec profile with the profile's guarantee — lossless
    formats exactly, lossy ones at PSNR >= 40 dB — and decode reports the
    exact (fmt, w, h)."""
    import numpy as np
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from owlcrawler_ray.functions import codec

    # derandomize pins the example stream: the suite can't green-wash a
    # boundary bug by drawing 40 lucky examples (round-3 postmortem).
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        w=st.integers(1, 40),
        h=st.integers(1, 40),
        fmt=st.sampled_from(["png", "jpeg", "webp"]),
        seed=st.integers(0, 2**31 - 1),
    )
    def run(w, h, fmt, seed):
        rng = np.random.default_rng(seed)
        pix = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
        buf = codec.encode(pix, fmt)
        out, got_fmt, got_w, got_h = codec.decode(buf)
        assert (got_fmt, got_w, got_h) == (fmt, w, h)
        assert out.shape == pix.shape and out.dtype == np.uint8
        if fmt == "png":
            assert np.array_equal(out, pix)
        else:
            mse = float(np.mean((out.astype(np.float64) - pix) ** 2))
            psnr = 10 * np.log10(255.0**2 / mse) if mse else float("inf")
            assert psnr >= 40.0, (fmt, psnr)

    run()


def test_host_of_many_matches_scalar_host_of():
    """host_of_many is a vectorized host_of (RE2 capture + scalar
    fallback for non-matches/bracket hosts): differential over scheme
    variants, userinfo/ports, IPv6, malformed brackets (urlsplit raises
    -> ""), protocol-relative, scheme-less, and a seeded ascii fuzz."""
    import random
    import string

    from owlcrawler_ray.functions.ids import host_of, host_of_many

    urls = [
        "http://host-1.test/page-2.html", "https://a.b:8080/x?q=1#f",
        "HTTP://UP.example/", "ftp://u:p@h/", "http://[::1]/x",
        "http://[x/p", "//proto-rel/x", "mailto:a@b", "",
        "http://h#frag", "http://h?only=query", "weird",
        "x+y-z.1://host/p", "http:///emptyhost", "http://",
    ]
    assert host_of_many(urls) == [host_of(u) for u in urls]
    rng = random.Random(0)
    fuzz = [
        "".join(rng.choice(string.printable[:80])
                for _ in range(rng.randint(0, 30)))
        for _ in range(2000)
    ]
    assert host_of_many(fuzz) == [host_of(u) for u in fuzz]


def test_synth_pixels_bit_identical_to_uncached():
    """The shape-array cache in synth_pixels must not change a single
    byte of any image, ever — crawl parity, phash goldens and the PSNR
    invariant all pin pixel content. Differential vs an inline
    re-implementation of the original uncached form."""
    import hashlib

    import numpy as np

    def uncached(image_id, w, h):
        seed = int.from_bytes(
            hashlib.blake2b(image_id.encode(), digest_size=8).digest(),
            "little")
        rng = np.random.default_rng(seed)
        yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
        base = np.stack(
            [(xx / max(w - 1, 1)) * 255.0,
             (yy / max(h - 1, 1)) * 255.0,
             ((xx + yy) / max(w + h - 2, 1)) * 255.0], axis=-1)
        phase = rng.uniform(0, 2 * np.pi, size=3)
        freq = rng.uniform(0.05, 0.3, size=3)
        wave = 40.0 * np.sin(freq * (xx + yy)[..., None] + phase)
        noise = rng.normal(0, 12.0, size=(h, w, 3))
        return np.clip(base + wave + noise, 0, 255).astype(np.uint8)

    for i, (w, h) in enumerate(
            [(32, 32), (48, 32), (64, 48), (96, 64), (192, 128), (1, 1),
             (7, 3), (1, 9), (9, 1)] * 4):
        a = codec.synth_pixels(f"bit-{i}", w, h)
        assert np.array_equal(a, uncached(f"bit-{i}", w, h)), (i, w, h)
    # the img_scale=2 shapes the bulk benchmark crawl serves, ~100 ids
    # each: the diagonal sine table must match full-size sin everywhere
    for w, h in [(64, 64), (96, 64), (128, 96), (192, 128)]:
        for i in range(100):
            a = codec.synth_pixels(f"s2-{w}x{h}-{i}", w, h)
            assert np.array_equal(a, uncached(f"s2-{w}x{h}-{i}", w, h)), (
                i, w, h)
    # cached base arrays are read-only: a caller mutating its output
    # cannot poison later images
    out = codec.synth_pixels("ro-check", 48, 32)
    out[:] = 0  # output is a fresh array, mutation must be safe
    assert np.array_equal(
        codec.synth_pixels("ro-check", 48, 32), uncached("ro-check", 48, 32))


def test_phash_matches_reference_form():
    """phash64's gather-first + packbits fast path vs the original
    gray-then-resize + 64-step shift loop, over random and synthesized
    images of many shapes (incl. degenerate 1x1 and sub-32 sizes)."""
    import numpy as np

    def reference(pixels):
        gray = pixels.astype(np.float64).mean(axis=2)
        small = codec._resize_gray(gray, 32)
        d = codec._dct_matrix(32)
        flat = (d @ small @ d.T)[:8, :8].copy().flatten()
        med = np.median(flat[1:])
        bits = (flat > med).astype(np.uint64)
        val = np.uint64(0)
        for i in range(64):
            val = (val << np.uint64(1)) | bits[i]
        return int(np.int64(val))

    rng = np.random.default_rng(11)
    shapes = [(32, 32), (48, 32), (96, 64), (128, 192), (3, 5), (1, 1),
              (300, 500)]
    for k in range(70):
        h, w = shapes[k % len(shapes)]
        px = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
        assert codec.phash64(px) == reference(px), (k, h, w)
    for i in range(10):
        px = codec.synth_pixels(f"ph-ref-{i}", 96, 64)
        assert codec.phash64(px) == reference(px)
    # the same inputs through the batch kernel in ONE call mixing shapes
    rng = np.random.default_rng(11)
    imgs = []
    for k in range(70):
        h, w = shapes[k % len(shapes)]
        imgs.append(rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8))
    imgs += [codec.synth_pixels(f"ph-ref-{i}", 96, 64) for i in range(10)]
    got = codec.phash_batch(np.stack([codec.phash_sample(p) for p in imgs]))
    assert got.dtype == np.int64 and got.shape == (len(imgs),)
    assert got.tolist() == [reference(p) for p in imgs]
    assert codec.phash_batch(
        np.empty((0, 32, 32, 3), dtype=np.uint8)).shape == (0,)


def test_image_decoder_matches_per_row_reference():
    """ImageDecoder (validate + inflate per payload, dequantize only the
    phash grid, one batched phash, pass-through columns taken from the
    batch) vs a per-row reference built from codec.decode + phash64, on
    one batch mixing all 3 fmts, 1x1 and odd shapes, an empty payload
    (a failed fetch: skipped, not counted), foreign bytes and a truncated
    zlib stream (undecodable: dropped and counted in n_bad)."""
    import numpy as np
    import pyarrow as pa

    from owlcrawler_ray.functions import ids
    from owlcrawler_ray.stages.images import ImageDecoder

    good = codec.encode(codec.synth_pixels("trunc", 40, 30), "webp")
    payloads = []
    for k, (w, h) in enumerate([(1, 1), (7, 3), (33, 17), (64, 48),
                                (1, 9), (96, 64)]):
        for fmt in ("png", "jpeg", "webp"):
            px = codec.synth_pixels(f"dec-{k}-{fmt}", w, h)
            payloads.append(codec.encode(px, fmt))
    bad = {3: b"", 8: b"\x89PNG\r\n\x1a\nnot ours", 12: good[:len(good) // 2],
           15: good[:10]}
    for i, b in sorted(bad.items()):
        payloads.insert(i, b)
    n_undecodable = sum(1 for b in bad.values() if b)
    n = len(payloads)
    batch = pa.table({
        "image_url": [f"http://host-0.test/img-{i}-0.png" for i in range(n)],
        "caption": [f"caption {i}" for i in range(n)],
        "tick": pa.array(range(100, 100 + n), pa.int64()),
        "img_idx": pa.array([i % 3 for i in range(n)], pa.int32()),
        "page_url": [f"http://host-0.test/page-{i}.html" for i in range(n)],
        "bytes": pa.array(payloads, pa.large_binary()),
        "ok": [True] * n,
    })

    def reference(batch):
        rows = []
        for r in batch.to_pylist():
            if not r["bytes"]:
                continue
            try:
                pix, fmt, w, h = codec.decode(r["bytes"])
            except ValueError:
                continue
            rows.append({
                "image_id": ids.doc_id(r["image_url"]), "bytes": r["bytes"],
                "w": w, "h": h, "fmt": fmt, "caption": r["caption"],
                "phash": codec.phash64(pix), "tick": r["tick"],
                "img_idx": r["img_idx"], "page_url": r["page_url"]})
        return rows

    dec = ImageDecoder()
    out = dec(batch)
    assert out.schema == pa.schema([
        ("image_id", pa.string()), ("bytes", pa.large_binary()),
        ("w", pa.int32()), ("h", pa.int32()), ("fmt", pa.string()),
        ("caption", pa.string()), ("phash", pa.int64()),
        ("tick", pa.int64()), ("img_idx", pa.int32()),
        ("page_url", pa.string())])
    want = reference(batch)
    assert out.to_pylist() == want
    assert out.num_rows == n - len(bad) and dec.n_bad == n_undecodable
    assert {r["fmt"] for r in want} == {"png", "jpeg", "webp"}
    # without page_url the row shape is the same minus that column
    out2 = ImageDecoder()(batch.drop_columns(["page_url"]))
    assert out2.to_pylist() == [
        {k: v for k, v in r.items() if k != "page_url"} for r in want]
    # a batch of only bad payloads: zero rows, full schema
    all_bad = batch.take(sorted(bad))
    dec3 = ImageDecoder()
    none = dec3(all_bad)
    assert none.num_rows == 0 and none.schema == out.schema
    assert dec3.n_bad == n_undecodable


def test_image_bytes_memo_matches_fresh_instance():
    """SyntheticWeb's per-page image-meta memo must serve byte-identical
    payloads to a memo-cold instance, including repeat lookups."""
    from owlcrawler_ray.sources.corpus import SyntheticWeb, WebConfig

    cfg = WebConfig()
    warm = SyntheticWeb(cfg)
    metas = []
    for pi in range(0, 6):
        metas.extend(warm.images_on(0, pi))
    got = [warm.image_bytes(m["image_url"]) for m in metas]
    # second pass: memo fully hot
    again = [warm.image_bytes(m["image_url"]) for m in metas]
    cold = [SyntheticWeb(cfg).image_bytes(m["image_url"]) for m in metas]
    assert got == cold and again == cold and len(got) > 0


def test_decode_lut_matches_arithmetic_form():
    """The dequantization LUT must equal clip(q*2^s + 2^(s-1), 0, 255)
    for every legal shift and every byte value — and decode must apply
    it identically to the arithmetic original over random payloads."""
    import numpy as np

    for s in range(1, 8):
        q = np.arange(256, dtype=np.int32)
        ref = np.clip(q * (1 << s) + (1 << (s - 1)), 0, 255).astype(np.uint8)
        assert np.array_equal(codec._DEQUANT_LUT[s], ref), s
    rng = np.random.default_rng(3)
    for k in range(30):
        px = rng.integers(0, 256, size=(48, 32, 3), dtype=np.uint8)
        for fmt in ("png", "jpeg", "webp"):
            s = codec._FMT_SHIFT[fmt]
            dec, *_ = codec.decode(codec.encode(px, fmt))
            q = (px >> s) if s else px
            ref = (np.clip(q.astype(np.int32) * (1 << s) + (1 << (s - 1)),
                           0, 255).astype(np.uint8) if s else q)
            assert np.array_equal(dec, ref), (k, fmt)


def test_synth_phash_decode_property_sweep():
    """Hypothesis sweep of the fast paths over arbitrary ids and shapes:
    synth matches the uncached original form, phash matches the shift-
    loop original, and decode round-trips through the LUT with the PSNR
    floor intact."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    import numpy as np

    def uncached(image_id, w, h):
        import hashlib

        seed = int.from_bytes(
            hashlib.blake2b(image_id.encode(), digest_size=8).digest(),
            "little")
        rng = np.random.default_rng(seed)
        yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
        base = np.stack(
            [(xx / max(w - 1, 1)) * 255.0,
             (yy / max(h - 1, 1)) * 255.0,
             ((xx + yy) / max(w + h - 2, 1)) * 255.0], axis=-1)
        phase = rng.uniform(0, 2 * np.pi, size=3)
        freq = rng.uniform(0.05, 0.3, size=3)
        wave = 40.0 * np.sin(freq * (xx + yy)[..., None] + phase)
        noise = rng.normal(0, 12.0, size=(h, w, 3))
        return np.clip(base + wave + noise, 0, 255).astype(np.uint8)

    def phash_orig(pixels):
        gray = pixels.astype(np.float64).mean(axis=2)
        small = codec._resize_gray(gray, 32)
        d = codec._dct_matrix(32)
        flat = (d @ small @ d.T)[:8, :8].copy().flatten()
        med = np.median(flat[1:])
        bits = (flat > med).astype(np.uint64)
        val = np.uint64(0)
        for i in range(64):
            val = (val << np.uint64(1)) | bits[i]
        return int(np.int64(val))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        image_id=st.text(min_size=0, max_size=40),
        w=st.integers(min_value=1, max_value=80),
        h=st.integers(min_value=1, max_value=80),
        fmt=st.sampled_from(["png", "jpeg", "webp"]),
    )
    def run(image_id, w, h, fmt):
        pix = codec.synth_pixels(image_id, w, h)
        assert np.array_equal(pix, uncached(image_id, w, h))
        assert codec.phash64(pix) == phash_orig(pix)
        dec, f2, w2, h2 = codec.decode(codec.encode(pix, fmt))
        assert (f2, w2, h2) == (fmt, w, h)
        if fmt == "png":
            assert np.array_equal(dec, pix)
        else:
            assert codec.psnr(pix, dec) >= 40.0

    run()
