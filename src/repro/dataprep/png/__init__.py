"""A functional PNG-equivalent lossless codec.

§VII-A notes TrainBox can host existing decoding accelerators for other
formats — PNG among them.  This package provides a complete lossless
image codec with PNG's algorithmic structure, so the preparation stack
can serve datasets stored losslessly:

* per-scanline prediction filters (None/Sub/Up/Average/Paeth) with the
  minimum-sum-of-absolute-differences heuristic
  (:mod:`repro.dataprep.png.filters`);
* LZ77 back-reference matching over a sliding window
  (:mod:`repro.dataprep.png.lz77`);
* canonical Huffman entropy coding of the literal/length and distance
  streams, reusing the JPEG codec's Huffman machinery
  (:mod:`repro.dataprep.png.deflate`);
* a small container (:mod:`repro.dataprep.png.codec`).

Unlike the JPEG codec this one is exactly lossless — a property test
pins bit-perfect round trips on arbitrary images.
"""

from repro.dataprep.png.codec import decode, encode

__all__ = ["decode", "encode"]
