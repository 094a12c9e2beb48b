package experiments

import (
	"press/cluster"
	"press/core"
	"press/netmodel"
)

// DirScalingCell is one (cluster size, strategy) measurement of the
// directory-scaling sweep.
type DirScalingCell struct {
	Strategy   string  `json:"strategy"`
	Throughput float64 `json:"throughput"`
	Requests   int64   `json:"requests"`
	// DirMsgs counts directory-maintenance messages in the measurement
	// window: caching updates plus, under sharding, lookups, replies,
	// and invalidations.
	DirMsgs int64 `json:"dirMsgs"`
	// DirPerReq is cluster-wide directory messages per completed
	// request: ~O(N) under the replicated broadcast directory, ~O(1)
	// under sharding.
	DirPerReq float64 `json:"dirPerReq"`
	// DirPerNodeReq divides DirPerReq over the nodes that carry it —
	// the per-node directory burden the paper's broadcast design grows
	// linearly and sharding holds flat.
	DirPerNodeReq float64 `json:"dirPerNodeReq"`
}

// DirScalingRow is one cluster size of the sweep.
type DirScalingRow struct {
	Nodes int `json:"nodes"`
	// Cells holds one measurement per strategy, in
	// DirectoryScalingStrategies order.
	Cells []DirScalingCell `json:"cells"`
}

// DirectoryScalingSizes returns the swept cluster sizes. The low end
// sits below the broadcast/sharded crossover so the sweep captures it.
func DirectoryScalingSizes() []int { return []int{4, 8, 16, 32, 64, 128, 256} }

// DirectoryScalingStrategies returns the compared strategies: the
// paper's replicated broadcast directory under piggy-backing, and the
// consistent-hash sharded directory.
func DirectoryScalingStrategies() []core.Strategy {
	return []core.Strategy{core.PB(), core.Sharded()}
}

// DirectoryScaling sweeps cluster size for the two directory regimes
// over one trace (Options.Trace) on VIA/cLAN. Options.Nodes is ignored;
// the sweep runs DirectoryScalingSizes. Runs start from cold caches and
// measure from the first request: directory traffic is maintenance
// traffic, and a prewarmed steady state with no cache churn sends
// almost none, hiding exactly the cost being measured. Under churn
// every caching change broadcasts to N-1 peers in the replicated
// design — total traffic ~O(N²) as the cluster grows — while the
// sharded directory pays one directed update per change and one
// lookup/reply per cold read-cache miss, ~O(N) total. The crossover is
// this sweep's artifact.
func DirectoryScaling(o Options) ([]DirScalingRow, error) {
	o = o.withDefaults()
	sizes := DirectoryScalingSizes()
	strategies := DirectoryScalingStrategies()
	rows := make([]DirScalingRow, len(sizes))
	for i, n := range sizes {
		rows[i] = DirScalingRow{Nodes: n, Cells: make([]DirScalingCell, len(strategies))}
	}
	err := forEachIndex(len(sizes)*len(strategies), func(cell int) error {
		ni, si := cell/len(strategies), cell%len(strategies)
		oo := o
		oo.Nodes = sizes[ni]
		tr, err := loadTrace(o.Trace, oo.Requests)
		if err != nil {
			return err
		}
		r, err := cluster.Run(cluster.Config{
			Nodes:          oo.Nodes,
			Trace:          tr,
			Combo:          netmodel.VIAOverCLAN(),
			Version:        v(0),
			Dissemination:  strategies[si],
			Seed:           oo.Seed,
			NoPrewarm:      true,
			WarmupRequests: -1,
		})
		if err != nil {
			return err
		}
		dir := r.Msgs.Count[core.MsgCaching] + r.Msgs.Count[core.MsgDirLookup] +
			r.Msgs.Count[core.MsgDirReply] + r.Msgs.Count[core.MsgDirInval]
		c := DirScalingCell{
			Strategy:   strategies[si].String(),
			Throughput: r.Throughput,
			Requests:   r.Requests,
			DirMsgs:    dir,
		}
		if r.Requests > 0 {
			c.DirPerReq = float64(dir) / float64(r.Requests)
			c.DirPerNodeReq = c.DirPerReq / float64(sizes[ni])
		}
		rows[ni].Cells[si] = c
		return nil
	})
	return rows, err
}
