"""Gate-level netlist substrate: cells, libraries, circuits, BLIF/Verilog."""

from repro.netlist.blif import read_blif, write_blif, write_blif_file
from repro.netlist.cell import Cell
from repro.netlist.circuit import Circuit, Gate
from repro.netlist.library import (
    Library,
    builtin_library,
    lsi10k_like_library,
    unit_library,
)
from repro.netlist.verilogin import read_verilog
from repro.netlist.verilogout import write_verilog, write_verilog_file

__all__ = [
    "Cell",
    "Library",
    "unit_library",
    "lsi10k_like_library",
    "builtin_library",
    "Circuit",
    "Gate",
    "read_blif",
    "write_blif",
    "write_blif_file",
    "read_verilog",
    "write_verilog",
    "write_verilog_file",
]
