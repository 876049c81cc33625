"""A functional baseline-JPEG-equivalent codec.

The paper's imaging workloads store ImageNet as 256×256 JPEG files and the
dominant formatting cost is JPEG decoding — in particular the inherently
serial Huffman phase (§V-B).  To ground the cost model in a real
implementation, this package provides a complete codec with the same
algorithmic structure as baseline JPEG:

* RGB ↔ YCbCr color conversion with optional 4:2:0 chroma subsampling
  (:mod:`repro.dataprep.jpeg.color`);
* 8×8 block type-II DCT and inverse (:mod:`repro.dataprep.jpeg.dct`);
* quantization with the standard Annex-K tables and quality scaling
  (:mod:`repro.dataprep.jpeg.quant`);
* zig-zag scan, DC differential + AC run-length coding, and canonical
  Huffman coding with the standard baseline tables
  (:mod:`repro.dataprep.jpeg.huffman`);
* an encoder/decoder pair over a small container format
  (:mod:`repro.dataprep.jpeg.codec`).

The container framing differs from JFIF (no marker segments), but every
compute stage — the part that costs cycles — is the real algorithm, so
compression ratios and decode cost scale exactly like baseline JPEG.
"""

from repro.dataprep.jpeg.codec import decode, decode_batch, encode, encode_batch

__all__ = ["decode", "decode_batch", "encode", "encode_batch"]
