"""File formats: espresso PLA, BLIF and the decomposition certificate.

Versioned JSON artifacts (the component store, certificates, the
repolint baseline) are read, envelope-checked and written through
:mod:`repro.io.jsonfile`.
"""

from repro.io.pla import (PLAData, PLAError, load_pla, parse_pla,
                          read_pla, read_text, write_pla)
from repro.io.blif import (BLIFError, write_blif, parse_blif,
                           parse_blif_netlist, netlist_from_functions)
from repro.io.cert import (CERT_FORMAT, CERT_VERSION, CertificateError,
                           cert_path_for, load_cert, named_cover,
                           parse_cert, rebuild_cover, save_cert,
                           validate_cover)

__all__ = [
    "PLAData", "PLAError", "load_pla", "parse_pla", "read_pla",
    "read_text", "write_pla",
    "BLIFError", "write_blif", "parse_blif", "parse_blif_netlist",
    "netlist_from_functions",
    "CERT_FORMAT", "CERT_VERSION", "CertificateError", "cert_path_for",
    "load_cert", "named_cover", "parse_cert", "rebuild_cover",
    "save_cert", "validate_cover",
]
