"""Name -> protocol factory registry of the FTCS'98 protocols."""

from repro.protocols.edcan import EdcanProtocol
from repro.protocols.relcan import RelcanProtocol
from repro.protocols.totcan import TotcanProtocol

#: Name -> protocol factory registry.
PROTOCOL_FACTORIES = {
    "edcan": EdcanProtocol,
    "relcan": RelcanProtocol,
    "totcan": TotcanProtocol,
}
