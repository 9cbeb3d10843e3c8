"""Acquisition-side glue: the FPGA filter wrapper and the USB link.

Sec. 2.2/3 of the paper: "the modulator is connected to an external
digital decimation filter. Currently this filter is implemented in an
FPGA, which also provides an interface (USB) to a computer system."
This package models that data path: the FPGA streaming wrapper around the
bit-true decimation filter, USB-style packet framing with integrity
checks, and a host-side stream reassembler.
"""

from .usb import Frame, FrameDecoder, FrameEncoder
from .stream import SampleStream
from .fpga import FPGAFilterBank

__all__ = [
    "FPGAFilterBank",
    "Frame",
    "FrameDecoder",
    "FrameEncoder",
    "SampleStream",
]
