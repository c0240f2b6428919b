"""Array organization: specs, the array-model kernels, banks, main-memory chips."""
