"""Espresso PLA format reader/writer.

The paper's experiments read MCNC PLA files ("Both programs used the
PLA input files").  This module parses the espresso format (types
``f``, ``fd``, ``fr``) into :class:`PLAData`, converts to per-output
ISFs on a BDD manager, and writes ISFs back out (type ``fd``, one cube
block per output, don't-cares as ``-`` output entries).

Espresso semantics implemented:

* input plane: ``0`` negative literal, ``1`` positive, ``-`` absent;
* output plane, type ``f``/``fd``: ``1`` puts the cube in the output's
  on-set, ``-`` (type fd) in its don't-care set, ``0``/``~`` nothing;
* output plane, type ``fr``: ``1`` on-set, ``0`` off-set, ``-`` nothing;
* type ``f``: off-set is the complement of the on-set;
* type ``fd``: off-set is the complement of on-set | dc-set;
* type ``fr``: dc-set is the complement of on-set | off-set.
"""

from repro.bdd.function import Function
from repro.bdd.isop import isop
from repro.bdd.manager import BDD
from repro.bdd.node import FALSE, TRUE
from repro.boolfn.isf import ISF


class PLAError(ValueError):
    """Raised on malformed PLA text."""


class PLAData:
    """Parsed PLA: names plus raw cube rows (input plane, output plane)."""

    def __init__(self, num_inputs, num_outputs, input_names=None,
                 output_names=None, pla_type="fd", cubes=()):
        self.num_inputs = num_inputs
        self.num_outputs = num_outputs
        self.input_names = _plane_names(".ilb", input_names, num_inputs,
                                        "x")
        self.output_names = _plane_names(".ob", output_names, num_outputs,
                                         "y")
        inputs = set(self.input_names)
        clash = next((n for n in self.output_names if n in inputs), None)
        if clash is not None:
            # A netlist output of that name would drive the primary
            # input a second time.
            raise PLAError(".ob name %r is also an .ilb input name"
                           % clash)
        if pla_type not in ("f", "fd", "fr"):
            raise PLAError("unsupported PLA type %r" % pla_type)
        self.pla_type = pla_type
        self.cubes = list(cubes)  # list of (input_str, output_str)

    def add_cube(self, input_plane, output_plane):
        """Append one cube row after validating its width and symbols."""
        if len(input_plane) != self.num_inputs:
            raise PLAError("input plane %r has width %d, expected %d"
                           % (input_plane, len(input_plane),
                              self.num_inputs))
        if len(output_plane) != self.num_outputs:
            raise PLAError("output plane %r has width %d, expected %d"
                           % (output_plane, len(output_plane),
                              self.num_outputs))
        if set(input_plane) - set("01-"):
            raise PLAError("bad input plane symbols in %r" % input_plane)
        if set(output_plane) - set("01-~"):
            raise PLAError("bad output plane symbols in %r" % output_plane)
        self.cubes.append((input_plane, output_plane))

    # -- conversion to BDDs -------------------------------------------------
    def make_manager(self):
        """Fresh BDD manager with this PLA's input variables."""
        return BDD(self.input_names)

    def _cube_bdd(self, mgr, input_plane):
        node = TRUE
        # Build bottom-up over the current order for cheap conjunction.
        literals = []
        for name, symbol in zip(self.input_names, input_plane):
            if symbol == "1":
                literals.append(mgr.var(name))
            elif symbol == "0":
                literals.append(mgr.nvar(name))
        for literal in sorted(literals, key=mgr.level, reverse=True):
            node = mgr.and_(literal, node)
        return node

    def to_isfs(self, mgr=None):
        """Convert to ``{output_name: ISF}`` on *mgr* (or a fresh one).

        Returns ``(mgr, specs)``.
        """
        if mgr is None:
            mgr = self.make_manager()
        on = [FALSE] * self.num_outputs
        dc = [FALSE] * self.num_outputs
        off = [FALSE] * self.num_outputs
        for input_plane, output_plane in self.cubes:
            cube = None
            for j, symbol in enumerate(output_plane):
                if symbol in "0~" and self.pla_type != "fr":
                    continue
                if symbol == "~":
                    continue
                if cube is None:
                    cube = self._cube_bdd(mgr, input_plane)
                if symbol == "1":
                    on[j] = mgr.or_(on[j], cube)
                elif symbol == "-":
                    if self.pla_type == "fd":
                        dc[j] = mgr.or_(dc[j], cube)
                    # type f / fr: '-' in the output plane is ignored
                elif symbol == "0" and self.pla_type == "fr":
                    off[j] = mgr.or_(off[j], cube)
        specs = {}
        for j, name in enumerate(self.output_names):
            if self.pla_type == "fr":
                q = on[j]
                r = off[j]
                # Espresso resolves on/off overlap in favour of the
                # on-set; we are strict instead.
                if mgr.and_(q, r) != FALSE:
                    raise PLAError("output %r: on-set and off-set overlap"
                                   % name)
            else:
                q = mgr.diff(on[j], dc[j])
                r = mgr.not_(mgr.or_(on[j], dc[j]))
            specs[name] = ISF(Function(mgr, q), Function(mgr, r))
        return mgr, specs


def read_text(path):
    """Read a whole text file; ``"-"`` reads stdin (CLI convention)."""
    if path == "-":
        import sys
        return sys.stdin.read()
    with open(path) as handle:
        return handle.read()


def load_pla(path, mgr=None):
    """Read + parse a PLA file and build its ISFs in one call.

    Returns ``(data, mgr, specs)`` — the helper previously duplicated
    between ``repro.cli`` and ``repro.harness``.
    """
    data = parse_pla(read_text(path))
    mgr, specs = data.to_isfs(mgr=mgr)
    return data, mgr, specs


def parse_pla(text):
    """Parse espresso PLA *text* into :class:`PLAData`."""
    num_inputs = num_outputs = None
    input_names = output_names = None
    pla_type = "fd"
    rows = []
    for raw_line in text.splitlines():
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("."):
            parts = line.split()
            keyword = parts[0]
            if keyword in (".i", ".o", ".type") and len(parts) != 2:
                raise PLAError("%s takes one argument, got %r"
                               % (keyword, line))
            if keyword == ".i":
                num_inputs = _count_argument(parts)
            elif keyword == ".o":
                num_outputs = _count_argument(parts)
            elif keyword == ".ilb":
                input_names = parts[1:]
            elif keyword == ".ob":
                output_names = parts[1:]
            elif keyword == ".type":
                pla_type = parts[1]
            elif keyword in (".p", ".e", ".end"):
                continue
            else:
                raise PLAError("unsupported PLA directive %r" % keyword)
            continue
        parts = line.split()
        if len(parts) == 2:
            rows.append((parts[0], parts[1]))
        elif len(parts) == 1 and num_outputs == 0:
            rows.append((parts[0], ""))
        else:
            raise PLAError("cannot parse cube line %r" % line)
    if num_inputs is None or num_outputs is None:
        raise PLAError("missing .i/.o declarations")
    data = PLAData(num_inputs, num_outputs, input_names, output_names,
                   pla_type)
    for input_plane, output_plane in rows:
        data.add_cube(input_plane, output_plane)
    return data


def _count_argument(parts):
    """The non-negative integer argument of a ``.i``/``.o`` line."""
    if parts[1].isascii() and parts[1].isdigit():
        return int(parts[1])
    raise PLAError("%s takes a non-negative integer, got %r"
                   % tuple(parts))


def _plane_names(keyword, names, count, prefix):
    """Validated ``.ilb``/``.ob`` names, or *prefix*-numbered defaults.

    A name list must match its plane's width and must not repeat a
    name: either would silently drop or corrupt a column.
    """
    if names is None:
        return ["%s%d" % (prefix, i) for i in range(count)]
    names = list(names)
    if len(names) != count:
        raise PLAError("%s declares %d name(s) for %d %s"
                       % (keyword, len(names), count,
                          "inputs" if keyword == ".ilb" else "outputs"))
    if len(set(names)) != count:
        repeated = next(n for i, n in enumerate(names) if n in names[:i])
        raise PLAError("%s repeats the name %r" % (keyword, repeated))
    return names


def read_pla(path):
    """Parse a PLA file from *path*."""
    with open(path) as handle:
        return parse_pla(handle.read())


def write_pla(specs, input_names, path=None):
    """Serialise ``{output_name: ISF}`` to espresso type-fd text.

    Each output contributes its own irredundant on-set cover (output
    symbol ``1``) plus, when non-empty, its don't-care cover (symbol
    ``-``).

    Returns the text; also writes it to *path* when given.
    """
    if not specs:
        raise PLAError("nothing to write")
    mgr = next(iter(specs.values())).mgr
    output_names = list(specs)
    var_of = {mgr.var_index(name): pos
              for pos, name in enumerate(input_names)}
    lines = [".i %d" % len(input_names),
             ".o %d" % len(output_names),
             ".ilb %s" % " ".join(input_names),
             ".ob %s" % " ".join(output_names),
             ".type fd"]
    cube_lines = []
    for j, name in enumerate(output_names):
        isf = specs[name]
        _cover, on_cubes = isf.cover_cubes()
        for cube in on_cubes:
            cube_lines.append((_cube_text(cube, var_of, len(input_names)),
                               _output_text(j, len(output_names), "1")))
        dc = isf.dc
        if not dc.is_false():
            _node, dc_cubes = isop(mgr, dc.node, dc.node)
            for cube in dc_cubes:
                cube_lines.append((_cube_text(cube, var_of,
                                              len(input_names)),
                                   _output_text(j, len(output_names), "-")))
    lines.append(".p %d" % len(cube_lines))
    lines.extend("%s %s" % row for row in cube_lines)
    lines.append(".e")
    text = "\n".join(lines) + "\n"
    if path is not None:
        with open(path, "w") as handle:
            handle.write(text)
    return text


def _cube_text(cube, var_of, width):
    symbols = ["-"] * width
    for var, value in cube.literals.items():
        symbols[var_of[var]] = "1" if value else "0"
    return "".join(symbols)


def _output_text(position, width, symbol):
    symbols = ["0"] * width
    symbols[position] = symbol
    return "".join(symbols)
