"""Self-contained deterministic image codec + perceptual hash + PSNR.

The sandbox has no PIL/libjpeg/libwebp, so the *codec* is our own — a small,
fully deterministic format ("OWLC") with a lossless profile ("png") and two
lossy quantization profiles ("jpeg", "webp"). The crawl/decode PIPELINE
(schema, zero-copy Arrow binary columns, actor-pool decode stage, per-row
PSNR >= 40 dB invariant for lossy formats — BASELINE.json input_hint) is
real and tested; only the byte format differs from the real-world codecs.
A real PIL-based codec can drop in behind the same encode/decode signature
(see ``HAVE_PIL`` gate at the bottom).

Wire format: b"OWLC" | fmt_code u8 | shift u8 | w u16le | h u16le |
zlib(quantized RGB bytes, level 3 — noise-dominated payloads
compress ~1.2:1 at any level; see encode()). shift = dropped low bits per channel
(0 = lossless). Quantization: q = v >> s (floor — max q = 2^(8-s)-1, no
clip needed), reconstruction v' = q * 2^s + 2^(s-1) (bin center). Floor +
bin-center is nearest-level for every input, so the worst-case per-pixel
error is 2^(s-1): even a 1x1 image of worst-case pixels decodes at
>= 20*log10(255/2^(s-1)) dB = 42.1 dB at s=2 / 48.1 dB at s=1 — a hard
per-row floor over the 40 dB invariant, not an averaged one. (Round-3's
np.round(v/2^s) used banker's rounding, whose half-to-even ties landed
boundary values one bin off — error up to 2^s + 2^(s-1), 38.6 dB on a
lone pixel; caught by test_codec_roundtrip_property.)
"""

from __future__ import annotations

import functools
import hashlib
import zlib

import numpy as np

MAGIC = b"OWLC"
_FMT_CODE = {"png": 0, "jpeg": 1, "webp": 2}
_FMT_NAME = {v: k for k, v in _FMT_CODE.items()}
_FMT_SHIFT = {"png": 0, "jpeg": 2, "webp": 1}
LOSSY_FMTS = ("jpeg", "webp")

# decode() refuses headers claiming more pixels than this (67M px ≈
# 201 MB raw): the 2-byte w/h fields allow 65535² ≈ 12.9 GB, so without
# a bound a corrupt/hostile header turns the decode worker into an
# allocation bomb long before the reshape check can raise
MAX_DECODE_PIXELS = 1 << 26


_SYNTH_CACHE: dict = {}


def _synth_shape_arrays(w: int, h: int) -> tuple[np.ndarray, np.ndarray,
                                                 np.ndarray]:
    """(base gradient (h,w,3) float64, x+y index (h,w) intp, the w+h-1
    distinct x+y values as a (w+h-1,1) float64 column) for a shape —
    id-independent, so cached per (w,h). The corpus draws from a handful
    of dims; the cache is a few MB at most. Arrays are returned read-only
    so a caller bug can't corrupt later images."""
    key = (w, h)
    hit = _SYNTH_CACHE.get(key)
    if hit is None:
        yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
        base = np.stack(
            [
                (xx / max(w - 1, 1)) * 255.0,
                (yy / max(h - 1, 1)) * 255.0,
                ((xx + yy) / max(w + h - 2, 1)) * 255.0,
            ],
            axis=-1,
        )
        xy = np.add.outer(np.arange(h), np.arange(w))
        diag = np.arange(w + h - 1, dtype=np.float64)[:, None]
        for a in (base, xy, diag):
            a.setflags(write=False)
        if len(_SYNTH_CACHE) > 64:  # bound per-process memory; the
            _SYNTH_CACHE.clear()    # corpus only ever uses ~4 shapes
        hit = _SYNTH_CACHE[key] = (base, xy, diag)
    return hit


def pixel_seed(image_id: str) -> bytes:
    """The 8-byte little-endian seed of an image's pixels (its blake2b)."""
    return hashlib.blake2b(image_id.encode(), digest_size=8).digest()


def synth_pixels(image_id: str, w: int, h: int,
                 rng: np.random.Generator | None = None) -> np.ndarray:
    """Deterministic (h, w, 3) uint8 image for an id: smooth per-channel
    gradient + a diagonal wave + seeded noise. Same id -> same pixels,
    forever.

    ``rng`` is a generator already at the state ``np.random.default_rng``
    starts from for ``pixel_seed(image_id)``: the corpus's batch path
    (``SyntheticWeb.image_bytes_many``) seeds a whole batch in one
    ``functions.seeding`` call and passes each image a reused generator.
    None seeds one here, the reference path.

    The wave 40*sin(freq*(x+y) + phase) depends on x+y only, so it is
    evaluated once per distinct diagonal (w+h-1 values per channel) and
    gathered through the cached (x+y) index instead of running sin over
    all h*w*3 elements; the noise is standard_normal * 12, which draws
    the same stream as normal(0, 12) and rounds the same (0 + 12*z).
    Every value, dtype and op order matches the original full-size form
    (pinned by test_synth_pixels_bit_identical_to_uncached)."""
    if rng is None:
        rng = np.random.default_rng(
            int.from_bytes(pixel_seed(image_id), "little"))
    base, xy, diag = _synth_shape_arrays(w, h)
    phase = rng.uniform(0, 2 * np.pi, size=3)
    freq = rng.uniform(0.05, 0.3, size=3)
    wave = freq * diag
    wave += phase
    np.sin(wave, out=wave)
    wave *= 40.0
    acc = np.take(wave, xy, axis=0)  # (h, w, 3), a fresh array
    acc += base
    noise = rng.standard_normal(size=(h, w, 3))
    noise *= 12.0
    acc += noise
    # == np.clip(acc, 0, 255) for NaN-free input, in half the time
    np.maximum(acc, 0.0, out=acc)
    np.minimum(acc, 255.0, out=acc)
    return acc.astype(np.uint8)


def encode(pixels: np.ndarray, fmt: str) -> bytes:
    h, w, c = pixels.shape
    assert c == 3 and pixels.dtype == np.uint8
    s = _FMT_SHIFT[fmt]
    if s:
        q = pixels >> s  # floor; max q = 2^(8-s)-1 by construction
    else:
        q = pixels
    head = (
        MAGIC
        + bytes([_FMT_CODE[fmt], s])
        + int(w).to_bytes(2, "little")
        + int(h).to_bytes(2, "little")
    )
    # level 3: the synthetic pixel fields compress to ~1.2:1 at ANY
    # level (noise-dominated), and level 6 pays 45% more CPU for 0.6%
    # fewer bytes (measured, STATS.md r5 cont. 5). compress() is the
    # single largest cost of the fused fetch task (25% of task time at
    # level 6); any level decodes identically (zlib is lossless).
    return head + zlib.compress(q.tobytes(), 3)


def decode_quantized(buf) -> tuple[np.ndarray, str, int, int, int]:
    """bytes -> (quantized levels (h,w,3) uint8, fmt, shift, w, h): the
    one OWLC header + stream validation path. Raises ValueError on ANY
    payload that is not valid OWLC — including truncated headers,
    unknown format codes and corrupt zlib streams, which internally
    surface as IndexError/KeyError/zlib.error and are normalized here so
    callers can rely on the documented single exception type (a real
    fetch can hand this any bytes). Accepts any bytes-like object.

    Split from the LUT step so a caller that needs only part of the
    image (the 32x32 phash grid of ImageDecoder) dequantizes only that
    part; ``decode`` is this plus ``dequantize`` of the whole array."""
    buf = memoryview(buf).cast("B")
    if buf[:4] != MAGIC:
        raise ValueError("not an OWLC payload")
    try:
        fmt = _FMT_NAME[buf[4]]
        s = buf[5]
        if s > 7:  # encode() only writes shifts in {0,1,2}; a uint8
            # pixel has 8 bits, so s>7 is definitively corrupt — catch
            # it here instead of returning garbage pixels
            raise ValueError(f"shift byte {s} out of range")
        w = int.from_bytes(buf[6:8], "little")
        h = int.from_bytes(buf[8:10], "little")
        if w == 0 or h == 0:
            # encode() never writes a zero dimension; a (0,w,3) array
            # "decodes" fine but crashes every downstream consumer
            # (phash64/resize index row 0) OUTSIDE their except-ValueError
            # guards — reject it here where the contract is ValueError
            raise ValueError(f"zero image dimension {w}x{h}")
        if w * h > MAX_DECODE_PIXELS:
            raise ValueError(f"pixel count {w}x{h} beyond decode bound")
        # bounded decompression: a hostile header + high-ratio stream
        # (zlib bombs reach ~1000:1) must not allocate beyond what the
        # header promises — decompress AT MOST w*h*3 bytes and require
        # the stream to end exactly there (want >= 3 always: the
        # zero-dimension guard above already rejected w*h == 0, and
        # max_length=0 would mean unlimited)
        want = w * h * 3
        d = zlib.decompressobj()
        raw = d.decompress(buf[10:], want)
        if (len(raw) != want or d.decompress(b"", 1)
                or not d.eof or d.unused_data):
            raise ValueError("payload does not decompress to w*h*3 bytes")
        q = np.frombuffer(raw, dtype=np.uint8).reshape(h, w, 3)
    except (IndexError, KeyError, zlib.error, ValueError) as e:
        raise ValueError(f"corrupt OWLC payload: {e}") from e
    return q, fmt, s, w, h


def dequantize(q: np.ndarray, s: int) -> np.ndarray:
    """Quantized levels -> pixels: bin-center reconstruction via a
    256-entry LUT — byte-identical to clip(q*2^s + 2^(s-1), 0, 255)
    .astype(uint8) by construction (the LUT IS that expression evaluated
    over all possible q), one vectorized take instead of int32
    widen+multiply+clip per pixel. Elementwise, so it commutes with any
    gather of q."""
    return _DEQUANT_LUT[s][q] if s else q


def decode(buf: bytes) -> tuple[np.ndarray, str, int, int]:
    """bytes -> (pixels (h,w,3) uint8, fmt, w, h): ``decode_quantized``
    (same ValueError contract) + ``dequantize``. This is the hook point
    where a PIL decoder would take over for real jpeg/png/webp
    payloads."""
    q, fmt, s, w, h = decode_quantized(buf)
    return dequantize(q, s), fmt, w, h


# dequantization LUTs for every wire-legal shift (decode rejects s>7)
_DEQUANT_LUT = {
    s: np.clip(
        np.arange(256, dtype=np.int32) * (1 << s) + (1 << (s - 1)), 0, 255
    ).astype(np.uint8)
    for s in range(1, 8)
}


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    mse = np.mean((a.astype(np.float64) - b.astype(np.float64)) ** 2)
    if mse == 0:
        return float("inf")
    return float(10.0 * np.log10(255.0**2 / mse))


_DCT32 = None


def _dct_matrix(n: int = 32) -> np.ndarray:
    global _DCT32
    if _DCT32 is None:
        k = np.arange(n)[:, None]
        i = np.arange(n)[None, :]
        m = np.sqrt(2.0 / n) * np.cos(np.pi * (2 * i + 1) * k / (2 * n))
        m[0, :] = np.sqrt(1.0 / n)
        _DCT32 = m
    return _DCT32


def _resize_gray(gray: np.ndarray, size: int = 32) -> np.ndarray:
    h, w = gray.shape
    ys = np.minimum((np.arange(size) * h // size), h - 1)
    xs = np.minimum((np.arange(size) * w // size), w - 1)
    return gray[np.ix_(ys, xs)]


@functools.lru_cache(maxsize=64)
def _phash_grid(h: int, w: int) -> tuple[np.ndarray, np.ndarray]:
    ys = np.minimum((np.arange(32) * h // 32), h - 1)[:, None]
    xs = np.minimum((np.arange(32) * w // 32), w - 1)[None, :]
    ys.setflags(write=False)  # shared by every caller of the cache
    xs.setflags(write=False)
    return ys, xs


def phash_sample(pixels: np.ndarray) -> np.ndarray:
    """(h,w,C) image -> its (32,32,C) phash grid: the nearest-neighbour
    rows/cols the 32x32 resize reads (index arrays cached per shape). A
    pure gather, so it commutes with per-pixel maps (channel means,
    ``dequantize``)."""
    return pixels[_phash_grid(*pixels.shape[:2])]


def phash_batch(samples: np.ndarray) -> np.ndarray:
    """(n,32,32,3) uint8 phash grids -> (n,) int64 DCT perceptual hashes:
    the one phash kernel (``phash64`` is n=1). Gray = channel mean, 2-D
    DCT-II, the 8x8 low-frequency block thresholded at the median of its
    63 AC terms (DC excluded), bits packed MSB first; the packed 8 bytes
    read as a big-endian int64 fold bit 63 into the sign (FIXTURES.md §1)
    so the hash fits the input_hint's phash:int64.

    One stacked matmul/median/packbits for the whole batch: numpy runs a
    stacked matmul as one BLAS call per 32x32 item, the same call the
    single-image form makes, and the median of 63 values is an element,
    so every hash is bit-identical to the per-image gray-then-resize +
    shift-loop original (pinned by test_phash_matches_reference_form)."""
    n = len(samples)
    small = samples.astype(np.float64).mean(axis=3)
    d = _dct_matrix(32)
    flat = (d @ small @ d.T)[:, :8, :8].reshape(n, 64)
    med = np.median(flat[:, 1:], axis=1)
    bits = flat > med[:, None]
    return np.packbits(bits, axis=1).view(">i8").reshape(n).astype(np.int64)


def phash64(pixels: np.ndarray) -> int:
    """64-bit DCT perceptual hash of one (h,w,3) image -> SIGNED int
    (see ``phash_batch``). Sampling the 32x32 grid first converts 1k
    pixels to float64 instead of the whole image."""
    return int(phash_batch(phash_sample(pixels)[None])[0])


def hamming64(a: int, b: int) -> int:
    return bin((a ^ b) & 0xFFFFFFFFFFFFFFFF).count("1")


try:  # real-codec drop-in gate (not present in this sandbox)
    import PIL.Image  # noqa: F401

    HAVE_PIL = True
except ImportError:
    HAVE_PIL = False


# ---------------------------------------------------------------------------
# resize / video container / audio — multimodal kernels (all deterministic)
# ---------------------------------------------------------------------------

def resize_nearest(pixels: np.ndarray, out_w: int, out_h: int) -> np.ndarray:
    """Deterministic nearest-neighbor resize (h,w,3)->(out_h,out_w,3)."""
    h, w, _ = pixels.shape
    ys = np.minimum(np.arange(out_h) * h // out_h, h - 1)
    xs = np.minimum(np.arange(out_w) * w // out_w, w - 1)
    return pixels[np.ix_(ys, xs)]


def resize_block_mean(pixels: np.ndarray, factor: int) -> np.ndarray:
    """Area (block-mean) downscale by an integer factor (pads by edge
    replication when dims aren't divisible)."""
    h, w, c = pixels.shape
    ph, pw = (-h) % factor, (-w) % factor
    if ph or pw:
        pixels = np.pad(pixels, ((0, ph), (0, pw), (0, 0)), mode="edge")
        h, w = pixels.shape[:2]
    out = pixels.reshape(h // factor, factor, w // factor, factor, c)
    return out.mean(axis=(1, 3)).round().astype(np.uint8)


VIDEO_MAGIC = b"OWLV"


def encode_video(frames: list[np.ndarray], fmt: str = "jpeg") -> bytes:
    """Tiny deterministic video container: per-frame OWLC payloads with a
    length index. Stands in for mp4/webm so the frame-sampling PIPELINE
    (schema, batch sizing, stage signatures) is real; a PyAV/ffmpeg decoder
    drops in behind the same two functions."""
    payloads = [encode(f, fmt) for f in frames]
    head = VIDEO_MAGIC + len(payloads).to_bytes(4, "little")
    head += b"".join(len(p).to_bytes(4, "little") for p in payloads)
    return head + b"".join(payloads)


def video_frame_count(buf: bytes) -> int:
    buf = bytes(buf)
    if buf[:4] != VIDEO_MAGIC:
        raise ValueError("not an OWLV payload")
    return int.from_bytes(buf[4:8], "little")


def decode_video_frames(buf: bytes, stride: int = 1,
                        max_frames: int | None = None) -> list[np.ndarray]:
    """Every ``stride``-th frame, decoded. Raises ValueError on foreign
    bytes (the hook point for a real ffmpeg-based sampler)."""
    buf = bytes(buf)
    n = video_frame_count(buf)
    if 8 + 4 * n > len(buf):
        # the 4-byte count is wire data: a corrupt header claiming 2^32
        # frames would otherwise build a multi-GB sizes list from an
        # 8-byte input before any frame decode could raise
        raise ValueError(
            f"OWLV index claims {n} frames beyond the payload length"
        )
    sizes = [
        int.from_bytes(buf[8 + 4 * i : 12 + 4 * i], "little") for i in range(n)
    ]
    offs = [8 + 4 * n]
    for s in sizes[:-1]:
        offs.append(offs[-1] + s)
    out = []
    for i in range(0, n, stride):
        frame, *_ = decode(buf[offs[i] : offs[i] + sizes[i]])
        out.append(frame)
        if max_frames is not None and len(out) >= max_frames:
            break
    return out


def synth_audio(clip_id: str, n_samples: int = 8000) -> np.ndarray:
    """Deterministic int16 PCM clip (seeded tone mix + noise)."""
    seed = int.from_bytes(
        hashlib.blake2b(clip_id.encode(), digest_size=8).digest(), "little"
    )
    rng = np.random.default_rng(seed)
    t = np.arange(n_samples, dtype=np.float64)
    sig = np.zeros(n_samples)
    for _ in range(3):
        f = rng.uniform(0.005, 0.2)
        sig += rng.uniform(0.1, 0.5) * np.sin(2 * np.pi * f * t + rng.uniform(0, 6.28))
    sig += rng.normal(0, 0.05, n_samples)
    return np.clip(sig * 12000, -32768, 32767).astype(np.int16)


def encode_audio(samples: np.ndarray) -> bytes:
    return b"OWLA" + len(samples).to_bytes(4, "little") + samples.astype("<i2").tobytes()


def decode_audio(buf: bytes) -> np.ndarray:
    buf = bytes(buf)
    if buf[:4] != b"OWLA":
        raise ValueError("not an OWLA payload")
    n = int.from_bytes(buf[4:8], "little")
    return np.frombuffer(buf[8 : 8 + 2 * n], dtype="<i2")


def audio_features(samples: np.ndarray) -> dict:
    """RMS energy + zero-crossing rate + peak — the stateless feature-
    extraction kernel for an audio map_batches stage."""
    x = samples.astype(np.float64)
    rms = float(np.sqrt(np.mean(x**2))) if len(x) else 0.0
    zc = float(np.mean(np.abs(np.diff(np.signbit(x).astype(np.int8))))) if len(x) > 1 else 0.0
    peak = float(np.max(np.abs(x))) if len(x) else 0.0
    return {"rms": rms, "zcr": zc, "peak": peak}
