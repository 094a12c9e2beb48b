package pressd

import (
	"fmt"
	"strings"
	"syscall"
	"time"

	"press/server"
)

// splitAddrs parses a comma-separated address list flag.
func splitAddrs(s string) []string {
	parts := strings.Split(s, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// Mesh mode: -peers turns pressd from an in-process cluster into ONE
// node of a multi-process one. Each process runs node -node of the
// seed list, binds its entry (on -transport via, as the VIA bridge),
// meshes with its peers at theirs, and serves clients on -http. A
// restarted process rejoins and has the directory replayed; SIGTERM
// announces the leave, drains in-flight clients, and exits 0.

// meshConfig checks the mesh-mode flags against each other and returns
// this process's place in the cluster.
func meshConfig(self int, peers, httpAddr string) (*server.MeshConfig, error) {
	peerList := splitAddrs(peers)
	if self < 0 || self >= len(peerList) {
		return nil, fmt.Errorf("-node %d out of range for %d -peers", self, len(peerList))
	}
	return &server.MeshConfig{Self: self, PeerAddrs: peerList, HTTPAddr: httpAddr}, nil
}

// runMeshNode runs one cluster node to completion. It returns the
// process exit code: 0 for an orderly SIGINT stop or a completed
// SIGTERM drain, 1 when the node cannot start or the drain misses its
// deadline.
func (o *observers) runMeshNode(cfg server.Config, drain time.Duration) int {
	pn, err := server.StartNode(cfg)
	if err != nil {
		o.log.Print(err)
		return 1
	}
	o.plane.SetArmed(true)

	fmt.Printf("PRESS node %d of %d up: http://%s (epoch %d, %s transport)\n",
		cfg.Mesh.Self, cfg.Nodes, pn.HTTPAddr(), pn.Epoch(), cfg.Transport)
	fmt.Println("serving; SIGTERM drains, Ctrl-C stops")

	if o.awaitStop() != syscall.SIGTERM {
		// SIGINT: hard stop, no leave announcement.
		pn.Close()
		return 0
	}
	// Graceful leave: tell the peers, finish the clients we have, exit
	// clean so orchestrators see an orderly departure.
	if err := pn.Drain(drain); err != nil {
		o.log.Printf("drain: %v", err)
		return 1
	}
	return 0
}
