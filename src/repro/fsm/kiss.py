"""KISS2 format reader/writer (the MCNC FSM benchmark format).

A KISS2 file lists ``.i/.o/.p/.s/.r`` headers followed by transition
rows ``<input-cube> <state> <next-state> <outputs>``.
"""

from repro.fsm.machine import FSM, FSMError


def parse_kiss(text):
    """Parse KISS2 *text* into an :class:`~repro.fsm.machine.FSM`."""
    num_inputs = num_outputs = None
    declared_states = declared_products = None
    reset_state = None
    rows = []
    for raw_line in text.splitlines():
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("."):
            parts = line.split()
            keyword = parts[0]
            if keyword == ".i":
                num_inputs = int(parts[1])
            elif keyword == ".o":
                num_outputs = int(parts[1])
            elif keyword == ".p":
                declared_products = int(parts[1])
            elif keyword == ".s":
                declared_states = int(parts[1])
            elif keyword == ".r":
                reset_state = parts[1]
            elif keyword in (".e", ".end"):
                break
            else:
                raise FSMError("unsupported KISS directive %r" % keyword)
            continue
        parts = line.split()
        if len(parts) != 4:
            raise FSMError("cannot parse transition row %r" % line)
        rows.append(tuple(parts))
    if num_inputs is None or num_outputs is None:
        raise FSMError("missing .i/.o declarations")
    fsm = FSM(num_inputs, num_outputs, reset_state=reset_state)
    for input_cube, state, next_state, outputs in rows:
        fsm.add_transition(input_cube, state, next_state, outputs)
    if declared_products is not None \
            and declared_products != len(fsm.transitions):
        raise FSMError(".p declares %d rows, file has %d"
                       % (declared_products, len(fsm.transitions)))
    if declared_states is not None \
            and declared_states != fsm.num_states():
        raise FSMError(".s declares %d states, file has %d"
                       % (declared_states, fsm.num_states()))
    return fsm


def write_kiss(fsm, path=None):
    """Serialise an FSM back to KISS2 text."""
    lines = [".i %d" % fsm.num_inputs,
             ".o %d" % fsm.num_outputs,
             ".p %d" % len(fsm.transitions),
             ".s %d" % fsm.num_states()]
    if fsm.reset_state is not None:
        lines.append(".r %s" % fsm.reset_state)
    for t in fsm.transitions:
        lines.append("%s %s %s %s" % (t.input_cube, t.state,
                                      t.next_state, t.outputs))
    lines.append(".e")
    text = "\n".join(lines) + "\n"
    if path is not None:
        with open(path, "w") as handle:
            handle.write(text)
    return text
