"""Output checks that do not trust the program's own verifiers.

Checksums are recomputed here from the packet fields (``zlib.crc32``
for CRC-32, a complemented 32-bit word sum for the paper's checksum),
routing is checked against the case study's modulo table, and the
router's counters must conserve packets.  :func:`self_test` shows the
checker catches a wrong checksum and a misrouted packet.
"""

import struct
import zlib
from types import SimpleNamespace

MASK = 0xFFFFFFFF


def expected_checksum(packet, algorithm):
    """Checksum of *packet*'s seven header and data words."""
    words = [word & MASK for word in
             (packet.source, packet.destination, packet.packet_id)
             + tuple(packet.data)]
    if algorithm == "crc32":
        return zlib.crc32(struct.pack("<%dI" % len(words), *words))
    if algorithm == "sum":
        return ~sum(words) & MASK
    raise ValueError("unknown checksum algorithm %r" % (algorithm,))


class DeliveryLog:
    """Every packet the egress router puts on an output queue.

    Shadows ``nb_put`` on the system's output FIFOs (instance
    attributes only, so other systems are untouched).
    """

    def __init__(self, system):
        self.packets = []         # (output port, packet)
        for port, fifo in enumerate(system.router.outputs):
            fifo.nb_put = self._recorder(port, fifo.nb_put)

    def _recorder(self, port, nb_put):
        packets = self.packets

        def recorded_put(packet):
            accepted = nb_put(packet)
            if accepted:
                packets.append((port, packet))
            return accepted
        return recorded_put

    def signature(self):
        """The delivered packets as comparable plain tuples."""
        return tuple((port, packet.source, packet.destination,
                      packet.packet_id, tuple(packet.data), packet.checksum)
                     for port, packet in self.packets)


def check_packets(delivered, num_ports, algorithm):
    """Problems with the delivered ``(port, packet)`` pairs."""
    problems = []
    for port, packet in delivered:
        want = expected_checksum(packet, algorithm)
        if packet.checksum != want:
            problems.append("packet %d/%d: checksum %08x, expected %08x"
                            % (packet.source, packet.packet_id,
                               packet.checksum, want))
        if port != packet.destination % num_ports:
            problems.append("packet %d/%d: destination %d left on port %d"
                            % (packet.source, packet.packet_id,
                               packet.destination, port))
    return problems


def check_system(system, log):
    """Every independent check of one finished simulation."""
    config = system.config
    problems = check_packets(log.packets, config.num_ports, config.algorithm)
    stats = system.stats()
    router = system.router
    queued_inputs = sum(len(fifo) for fifo in router.inputs)
    queued_outputs = sum(len(fifo) for fifo in router.outputs)
    in_flight = (stats.generated - stats.input_drops - queued_inputs
                 - stats.forwarded - stats.output_drops)
    if not 0 <= in_flight <= config.num_cpus:
        problems.append("conservation: %d packets unaccounted for "
                        "(allowed 0..%d in flight)"
                        % (in_flight, config.num_cpus))
    if stats.forwarded != stats.received + queued_outputs:
        problems.append("forwarded %d != received %d + queued %d"
                        % (stats.forwarded, stats.received, queued_outputs))
    if stats.forwarded != len(log.packets):
        problems.append("forwarded %d but %d packets reached an output"
                        % (stats.forwarded, len(log.packets)))
    if stats.corrupt:
        problems.append("consumers saw %d corrupt packets" % stats.corrupt)
    if system.metrics.contexts_quarantined:
        problems.append("%d contexts quarantined: %s"
                        % (system.metrics.contexts_quarantined,
                           system.metrics.quarantine_details))
    return problems


def self_test():
    """Feed the checker one bad-checksum and one misrouted packet.

    Raises RuntimeError when the checker rejects a good packet or lets
    either fault through.
    """
    def packet(destination, checksum):
        return SimpleNamespace(source=1, destination=destination,
                               packet_id=7, data=(1, 2, 3, 0xFFFFFFFF),
                               checksum=checksum)

    for algorithm in ("sum", "crc32"):
        good = packet(6, 0)
        good.checksum = expected_checksum(good, algorithm)
        if check_packets([(2, good)], 4, algorithm):
            raise RuntimeError("checker rejects a good %s packet"
                               % algorithm)
        bad_checksum = packet(6, good.checksum ^ 1)
        misrouted = packet(6, good.checksum)
        found = check_packets([(2, bad_checksum), (3, misrouted)], 4,
                              algorithm)
        if (len(found) != 2 or "checksum" not in found[0]
                or "left on port 3" not in found[1]):
            raise RuntimeError("checker missed a planted %s fault: %r"
                               % (algorithm, found))
    if ~(1 + 2 + 3) & MASK != expected_checksum(
            SimpleNamespace(source=1, destination=2, packet_id=3,
                            data=(0, 0, 0, 0)), "sum"):
        raise RuntimeError("word-sum reference is wrong")
