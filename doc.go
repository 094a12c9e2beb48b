// Package press is a from-scratch Go reproduction of "User-Level
// Communication in Cluster-Based Servers" (Carrera, Rao, Iftode,
// Bianchini; HPCA 2002): the PRESS locality-conscious cluster WWW
// server, the Virtual Interface Architecture substrate it runs on, and
// the paper's complete experimental and analytical evaluation.
//
// The root package holds only this documentation and the benchmark
// harness (one benchmark per table and figure of the paper); the
// library lives in the subpackages:
//
//   - press/via — a software implementation of VIA: NICs on a fabric,
//     connected VIs with descriptor work queues, completion queues,
//     memory registration, remote memory writes, reliable-delivery
//     service, and node-level fault injection.
//   - press/server — PRESS itself, runnable: an N-node cluster in one
//     process serving HTTP over loopback, distributing requests
//     internally over VIA or kernel TCP with the paper's version matrix
//     V0-V5 (regular messages, RMW circular buffers, zero-copy).
//   - press/cluster — a deterministic discrete-event simulator of the
//     same server, calibrated with the paper's measured costs; it
//     regenerates the experimental figures and tables.
//   - press/model — the analytical open queueing model of Section 4.
//   - press/core — the transport-agnostic PRESS policy: request
//     distribution, load dissemination, flow control.
//   - press/trace, press/zipfdist — workload synthesis matched to the
//     paper's Table 1, plus a Common Log Format parser.
//   - press/netmodel — cost models for TCP/FE, TCP/cLAN, and VIA/cLAN
//     and the V0-V5 feature matrix.
//   - press/experiments — one function per paper figure/table, plus
//     ablations and sensitivity sweeps; press/loadgen drives real
//     clusters; press/eventsim, press/cache, press/stats are the
//     supporting substrates.
//
// Start with the examples directory (quickstart, viapingpong,
// dissemination, locality, modelstudy), DESIGN.md for the system
// inventory, and EXPERIMENTS.md for paper-vs-measured results.
package press
