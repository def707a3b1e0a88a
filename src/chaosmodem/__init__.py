"""Chaotic-baseband modem simulation library.

Modules by stage: waveform (chaotic basis and shaping), txchain
(framing and QPSK mapping), channel (multipath and noise calibration),
rxchain (matched filter, estimation, thresholds), theory (closed-form
BER), baseline (RRC + MMSE comparator), harness (per-method pulse and
Monte Carlo sweeps), cli.
"""

__version__ = "0.1.0"
