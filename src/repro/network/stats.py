"""Netlist cost metrics matching the paper's Table 2 columns.

* ``gates``    — number of two-input gates (the paper's "Gates"),
* ``exors``    — number of XOR/XNOR gates among them,
* ``inverters``— NOT gates (reported for completeness; the paper folds
  them into the netlist without a separate column),
* ``area``     — sum of gate areas (simple gate 2, EXOR 5, NOT 1),
* ``cascades`` — logic levels counted in two-input gates (inverters are
  transparent for the level count),
* ``delay``    — longest path by summed gate delays (1.0 simple, 2.1
  EXOR, 0.5 NOT).

Only nodes reachable from the declared outputs are counted, so dead
logic never inflates the numbers.
"""

from repro.network import gates as G


class NetlistStats:
    """Cost summary of a netlist (see module docstring for fields)."""

    def __init__(self, gates, exors, inverters, area, cascades, delay):
        self.gates = gates
        self.exors = exors
        self.inverters = inverters
        self.area = area
        self.cascades = cascades
        self.delay = delay

    def as_dict(self):
        """Plain-dict view (handy for table printing and JSON dumps)."""
        return {
            "gates": self.gates,
            "exors": self.exors,
            "inverters": self.inverters,
            "area": self.area,
            "cascades": self.cascades,
            "delay": self.delay,
        }

    def __repr__(self):
        return ("NetlistStats(gates=%d, exors=%d, inv=%d, area=%.1f, "
                "cascades=%d, delay=%.1f)"
                % (self.gates, self.exors, self.inverters, self.area,
                   self.cascades, self.delay))


def compute_stats(netlist, events=None):
    """Compute :class:`NetlistStats` over the output cones of *netlist*.

    *events* optionally takes a :class:`repro.pipeline.EventBus`; the
    computed costs are published as a ``netlist_stats`` event.
    """
    live = netlist.reachable_from_outputs()
    gates = 0
    exors = 0
    inverters = 0
    area = 0.0
    levels = {}
    arrival = {}
    max_level = 0
    max_delay = 0.0
    for node in netlist.topological(live):
        gate_type = netlist.types[node]
        fanins = netlist.fanins[node]
        fan_level = max((levels[f] for f in fanins), default=0)
        fan_arrival = max((arrival[f] for f in fanins), default=0.0)
        if gate_type in G.TWO_INPUT_TYPES:
            gates += 1
            if gate_type in G.EXOR_TYPES:
                exors += 1
            levels[node] = fan_level + 1
        else:
            if gate_type == G.NOT:
                inverters += 1
            levels[node] = fan_level
        area += G.AREA[gate_type]
        arrival[node] = fan_arrival + G.DELAY[gate_type]
        max_level = max(max_level, levels[node])
        max_delay = max(max_delay, arrival[node])
    # Only levels/delays observable at the outputs matter.
    out_level = max((levels[node] for _n, node in netlist.outputs),
                    default=0)
    out_delay = max((arrival[node] for _n, node in netlist.outputs),
                    default=0.0)
    stats = NetlistStats(gates=gates, exors=exors, inverters=inverters,
                         area=area, cascades=out_level, delay=out_delay)
    if events is not None:
        events.publish("netlist_stats", outputs=len(netlist.outputs),
                       **stats.as_dict())
    return stats
