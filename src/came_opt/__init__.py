"""CAME, Adafactor and Adam on plain numpy arrays, with a benchmark harness."""
