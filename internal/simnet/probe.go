package simnet

import "exiot/internal/packet"

// This file is the world's active-measurement surface: the interface the
// ZMap/ZGrab simulators call instead of scanning the real Internet.

// ProbePort reports whether a TCP connection to ip:port would succeed.
// Hosts behind NAT, hosts whose malware closed their services, and ports
// without a listening service are unreachable — the three banner-grabbing
// obstacles the paper calls out.
func (w *World) ProbePort(ip packet.IP, port uint16) bool {
	h, ok := w.byIP[ip]
	if !ok {
		return false
	}
	if h.behindNAT || h.portsClosed {
		return false
	}
	_, open := h.services[port]
	return open
}

// GrabBanner attempts an application-layer banner grab against ip:port.
// It returns the banner text and protocol name on success.
func (w *World) GrabBanner(ip packet.IP, port uint16) (banner, protocol string, ok bool) {
	h, found := w.byIP[ip]
	if !found || h.behindNAT || h.portsClosed {
		return "", "", false
	}
	svc, open := h.services[port]
	if !open {
		return "", "", false
	}
	return svc.banner, svc.protocol, true
}
