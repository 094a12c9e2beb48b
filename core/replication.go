package core

import "time"

// ReplicationConfig parameterises the hot-object replication policy;
// Replicator owns every rule the fields below feed. Every non-test
// caller (pressd, press-sim, the hotspot experiment) sets only Enabled:
// the other six exist so tests can make the policy converge in
// milliseconds.
type ReplicationConfig struct {
	// Enabled turns the subsystem on. Default false: all hooks on the
	// request path must be free when disabled (check.sh gates on it).
	Enabled bool
	// HotRate is the per-file request rate (req/s EWMA) above which a
	// cacher pushes a new replica. Default 100.
	HotRate float64
	// DecayRate is the per-file rate below which a pulled copy is
	// dropped. Default HotRate/4 (hysteresis against flapping).
	DecayRate float64
	// HalfLife is the EWMA time constant for the per-file rate.
	// Default 2s.
	HalfLife time.Duration
	// MaxReplicas caps the live replica set size per file. Default 3.
	MaxReplicas int
	// Interval is the minimum window between rate folds (and the
	// hot/cold scan that follows each). Default 100ms.
	Interval time.Duration
	// Cooldown is the minimum gap between replication actions on the
	// same file, bounding churn under a noisy rate signal. Default 1s.
	Cooldown time.Duration
}

// WithDefaults fills zero fields with the defaults above. Enabled is
// left as given.
func (c ReplicationConfig) WithDefaults() ReplicationConfig {
	if c.HotRate <= 0 {
		c.HotRate = 100
	}
	if c.DecayRate <= 0 {
		c.DecayRate = c.HotRate / 4
	}
	if c.HalfLife <= 0 {
		c.HalfLife = 2 * time.Second
	}
	if c.MaxReplicas <= 0 {
		c.MaxReplicas = 3
	}
	if c.Interval <= 0 {
		c.Interval = 100 * time.Millisecond
	}
	if c.Cooldown <= 0 {
		c.Cooldown = time.Second
	}
	return c
}
