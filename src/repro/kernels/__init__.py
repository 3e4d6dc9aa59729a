"""Array helpers shared by the vectorized kernels (:mod:`.arrays`)."""
