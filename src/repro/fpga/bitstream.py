"""Configuration-memory and bitstream model.

Dynamic Circuit Specialization reconfigures the FPGA by *micro-reconfiguration*:
the frames of configuration memory that hold the truth-table bits of TLUTs
(and, on the hypothetical FPGA of the paper, the routing bits of TCONs) are
read, modified and written back through a configuration interface such as
HWICAP or MiCAP.  The cost of a specialization is therefore measured in
*configuration frames touched*.

This module models the configuration memory of the island FPGA:

* every tile (grid column x, row y) owns a fixed budget of configuration bits
  (LUT truth table, flip-flop init, connection-block and switch-block bits);
* bits are organized into fixed-size frames column by column, as on Xilinx
  devices, so touching one LUT dirties every frame that overlaps its tile.

The :class:`Bitstream` class holds actual configuration values so tests can
verify that two specializations differ exactly in the frames the cost model
predicts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, Set, Tuple

from .architecture import FPGAArchitecture

__all__ = ["ConfigurationLayout", "Bitstream", "FrameSpan"]

#: Default frame size in bits; matches the 41 x 32-bit words of a Virtex-5/6
#: configuration frame, the devices used by the DCS papers the VCGRA work
#: builds on.
DEFAULT_FRAME_BITS = 41 * 32


@dataclass(frozen=True)
class FrameSpan:
    """The contiguous range of frames covering one tile's configuration bits."""

    first_frame: int
    last_frame: int

    def frames(self) -> range:
        """The span's frame ids, ascending."""
        return range(self.first_frame, self.last_frame + 1)

    @property
    def count(self) -> int:
        """Number of frames in the span."""
        return self.last_frame - self.first_frame + 1


class ConfigurationLayout:
    """Mapping from FPGA tiles to configuration-memory frames."""

    def __init__(self, arch: FPGAArchitecture, frame_bits: int = DEFAULT_FRAME_BITS) -> None:
        if frame_bits < 8:
            raise ValueError("frame size is unrealistically small")
        self.arch = arch
        self.frame_bits = frame_bits

        w = arch.channel_width
        self.lut_bits = 1 << arch.lut_inputs
        self.ff_bits = 1
        # Connection-block bits: each LUT input pin can connect to every track
        # of the four adjacent channels; the output pin likewise.
        cb_in_bits = arch.lut_inputs * w * 4
        cb_out_bits = w * 4
        # Switch-block bits: disjoint switch block has 6 programmable pairs per track.
        sb_bits = 6 * w
        self.routing_bits = cb_in_bits + cb_out_bits + sb_bits
        self.tile_bits = self.lut_bits + self.ff_bits + self.routing_bits

        #: bits per column of tiles (logic rows only; IO configuration is tiny
        #: and folded into the same budget)
        self.column_bits = self.tile_bits * arch.height
        self.frames_per_column = max(1, math.ceil(self.column_bits / self.frame_bits))

    # -- frame geometry ---------------------------------------------------------

    @property
    def total_frames(self) -> int:
        """Number of configuration frames of the whole device."""
        return self.frames_per_column * self.arch.width

    def tile_bit_offset(self, x: int, y: int) -> int:
        """Offset of tile (x, y)'s first configuration bit inside its column."""
        if not self.arch.contains_clb(x, y):
            raise ValueError(f"({x}, {y}) is not a logic tile")
        return (y - 1) * self.tile_bits

    def frames_for_tile(self, x: int, y: int) -> FrameSpan:
        """Frames that contain any configuration bit of tile (x, y)."""
        start_bit = self.tile_bit_offset(x, y)
        end_bit = start_bit + self.tile_bits - 1
        base = (x - 1) * self.frames_per_column
        return FrameSpan(base + start_bit // self.frame_bits, base + end_bit // self.frame_bits)

    def frames_for_tiles(self, tiles: Iterable[Tuple[int, int]]) -> Set[int]:
        """Union of frames touched by a set of tiles (deduplicated)."""
        frames: Set[int] = set()
        for x, y in tiles:
            frames.update(self.frames_for_tile(x, y).frames())
        return frames


class Bitstream:
    """Concrete configuration values for an island FPGA.

    Only the pieces the reproduction needs are modelled: per-tile LUT truth
    tables and per-tile routing bits.  The class supports frame-level diffing,
    which is what the micro-reconfiguration cost model is built on.
    """

    def __init__(self, layout: ConfigurationLayout) -> None:
        self.layout = layout
        self.lut_configs: Dict[Tuple[int, int], int] = {}
        self.routing_configs: Dict[Tuple[int, int], int] = {}

    def set_lut_config(self, x: int, y: int, truth_table_bits: int) -> None:
        """Program the truth table of the LUT in tile (x, y)."""
        if truth_table_bits >> self.layout.lut_bits:
            raise ValueError("truth table wider than the physical LUT")
        if not self.layout.arch.contains_clb(x, y):
            raise ValueError(f"({x}, {y}) is not a logic tile")
        self.lut_configs[(x, y)] = truth_table_bits

    def set_routing_config(self, x: int, y: int, routing_bits: int) -> None:
        """Program the routing (connection/switch block) bits owned by tile (x, y)."""
        if routing_bits >> self.layout.routing_bits:
            raise ValueError("routing configuration wider than the tile's budget")
        if not self.layout.arch.contains_clb(x, y):
            raise ValueError(f"({x}, {y}) is not a logic tile")
        self.routing_configs[(x, y)] = routing_bits

    def clone(self) -> "Bitstream":
        """Independent copy: same layout, copied per-tile configuration dicts."""
        other = Bitstream(self.layout)
        other.lut_configs = dict(self.lut_configs)
        other.routing_configs = dict(self.routing_configs)
        return other

    def configured_tiles(self) -> Set[Tuple[int, int]]:
        """Tiles holding a LUT or routing configuration."""
        return set(self.lut_configs) | set(self.routing_configs)

    def diff_tiles(self, other: "Bitstream") -> Set[Tuple[int, int]]:
        """Tiles whose configuration differs between two bitstreams."""
        tiles = self.configured_tiles() | other.configured_tiles()
        changed = set()
        for tile in tiles:
            if self.lut_configs.get(tile, 0) != other.lut_configs.get(tile, 0):
                changed.add(tile)
            elif self.routing_configs.get(tile, 0) != other.routing_configs.get(tile, 0):
                changed.add(tile)
        return changed

    def diff_frames(self, other: "Bitstream") -> Set[int]:
        """Configuration frames that must be rewritten to go from ``other`` to ``self``."""
        return self.layout.frames_for_tiles(self.diff_tiles(other))

    def frame_image(self) -> Dict[int, int]:
        """Render the configuration into concrete frame contents.

        Returns a mapping ``frame id -> frame bits`` holding every *nonzero*
        frame of the device's configuration memory; absent frames are
        all-zero by definition, so two images are bit-identical iff the
        dicts are equal.  Each tile's bits are packed at its
        :meth:`~ConfigurationLayout.tile_bit_offset` inside its column --
        LUT truth table first, then the flip-flop init bit, then the
        routing bits -- and the column bit string is sliced into
        ``frame_bits``-sized frames, exactly the geometry
        :meth:`ConfigurationLayout.frames_for_tile` describes.

        This is the ground truth the frame-level delta encoding of
        :mod:`repro.reconfig.frames` diffs and patches: a frame whose
        content is equal between two configurations never needs to be
        written, even when :meth:`diff_frames` (which is geometric, not
        content-aware) would conservatively include it.
        """
        layout = self.layout
        ff_shift = layout.lut_bits + layout.ff_bits
        columns: Dict[int, int] = {}
        for (x, y) in self.configured_tiles():
            tile_val = self.lut_configs.get((x, y), 0) | (
                self.routing_configs.get((x, y), 0) << ff_shift
            )
            if tile_val:
                columns[x] = columns.get(x, 0) | (tile_val << self.layout.tile_bit_offset(x, y))
        mask = (1 << layout.frame_bits) - 1
        image: Dict[int, int] = {}
        for x, column in columns.items():
            base = (x - 1) * layout.frames_per_column
            index = 0
            while column:
                word = column & mask
                if word:
                    image[base + index] = word
                column >>= layout.frame_bits
                index += 1
        return image
