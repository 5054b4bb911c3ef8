"""Helpers shared by the test modules."""

from repro.storage import pack_graph


def pack_all(gen):
    """Every sample of ``gen`` packed, in order: what ``write_pff``/``write_cff`` take."""
    return [pack_graph(gen.make(i)) for i in range(len(gen))]
