package chl_test

// Shared cluster fixture for the serving-tier tests. Every sharded
// topology in this package — plain shards (router_test.go,
// directed_test.go, compressed_root_test.go), replicated shards with
// kill switches (replica_test.go, soak_test.go), and the parity matrix
// (parity_test.go) — goes through newTestCluster: SaveShards under a
// temp dir → Partition → one serving process per replica behind its own
// httptest listener → Router. startCluster and startReplicatedCluster
// are thin adapters over it, kept so their many call sites read the
// same as before.

import (
	"net/http"
	"net/http/httptest"
	"testing"

	chl "repro"
	"repro/internal/shard"
)

// clusterSpec describes the topology newTestCluster builds.
type clusterSpec struct {
	shards    int
	replicas  int // serving processes per shard; 0 means 1
	cacheSize int
	flaky     bool                    // wrap every replica in a flakyBackend kill switch
	tweak     func(*chl.RouterConfig) // optional config adjustment before the router starts
}

// testCluster is the running topology: every serving process, its
// listener, and the router fronting them. backends and flaky are
// indexed [shard][replica]; flaky is nil unless the spec asked for kill
// switches.
type testCluster struct {
	router   *chl.Router
	servers  []*chl.Server
	backends [][]*httptest.Server
	flaky    [][]*flakyBackend
	manifest *shard.Manifest
	part     *shard.Partition
	dir      string
}

func (c *testCluster) close() {
	for _, group := range c.backends {
		for _, ts := range group {
			ts.Close()
		}
	}
	for _, s := range c.servers {
		s.Close()
	}
}

// newShardProcess starts one serving process over shard sid's slice
// file.
func newShardProcess(t testing.TB, dir string, m *shard.Manifest, part *shard.Partition, sid, cacheSize int) *chl.Server {
	t.Helper()
	path, err := chl.ShardFilePath(dir+"/"+shard.ManifestName, m, sid)
	if err != nil {
		t.Fatal(err)
	}
	s, err := chl.NewServer(path, cacheSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetShard(sid, part); err != nil {
		t.Fatal(err)
	}
	return s
}

// newTestCluster splits fx per spec under a temp dir and starts the full
// serving topology.
func newTestCluster(t testing.TB, fx *chl.FlatIndex, spec clusterSpec) *testCluster {
	t.Helper()
	if spec.replicas < 1 {
		spec.replicas = 1
	}
	dir := t.TempDir()
	m, err := fx.SaveShards(dir, spec.shards, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	part, err := m.Partition()
	if err != nil {
		t.Fatal(err)
	}
	c := &testCluster{manifest: m, part: part, dir: dir}
	if spec.flaky {
		c.flaky = make([][]*flakyBackend, spec.shards)
	}
	groups := make([][]string, spec.shards)
	for sid := 0; sid < spec.shards; sid++ {
		c.backends = append(c.backends, nil)
		for rid := 0; rid < spec.replicas; rid++ {
			s := newShardProcess(t, dir, m, part, sid, spec.cacheSize)
			c.servers = append(c.servers, s)
			var h http.Handler = s.Handler()
			if spec.flaky {
				f := newFlakyBackend(h)
				c.flaky[sid] = append(c.flaky[sid], f)
				h = f
			}
			ts := httptest.NewServer(h)
			c.backends[sid] = append(c.backends[sid], ts)
			groups[sid] = append(groups[sid], ts.URL)
		}
	}
	cfg := chl.RouterConfig{Manifest: m, ReplicaAddrs: groups, CacheSize: spec.cacheSize}
	if spec.tweak != nil {
		spec.tweak(&cfg)
	}
	r, err := chl.NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.router = r
	return c
}
