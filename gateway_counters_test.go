package dpi

import (
	"reflect"
	"testing"
)

// TestGatewayCountersSurfacedExactlyOnce pins the counter block's contract:
// every slot declared in gwCounter reaches exactly one public field — a
// GatewayStats field (summed across shards) or an EngineStats field of the
// owning shard — none dropped, none mapped twice (GatewayStats.FlowsEvicted
// is the sum of the three eviction-reason slots, which Metrics labels
// apart). It writes a distinct value into each slot of one shard's block on
// an idle two-shard gateway and looks for each value by reflection, so a
// slot added without a mapping (or a field fed from two slots) fails here.
// The same values must then
// survive a ruleset swap and the old generation's retirement untouched:
// the counters belong to the shard, there is no retired baseline to fold
// them into.
func TestGatewayCountersSurfacedExactlyOnce(t *testing.T) {
	m, _ := gatewayMatcher(t, 60)
	gw := testGateway(t, m, GatewayConfig{EngineShards: 2, StreamWorkers: 1}, func(FlowMatch) {})
	defer gw.Close()

	const shard = 1
	sh := gw.shards[shard]
	slot := map[uint64]gwCounter{}
	for i := range sh.n {
		v := uint64(1_000_003 + 7919*i)
		sh.n[i].Store(v)
		slot[v] = gwCounter(i)
	}

	surfaced := func() map[uint64][]string {
		seen := map[uint64][]string{}
		collect := func(prefix string, v reflect.Value) {
			for i := 0; i < v.NumField(); i++ {
				var n uint64
				switch f := v.Field(i); f.Kind() {
				case reflect.Uint64:
					n = f.Uint()
				case reflect.Int:
					n = uint64(f.Int())
				default:
					t.Fatalf("%s%s: unexpected field kind %s", prefix, v.Type().Field(i).Name, f.Kind())
				}
				seen[n] = append(seen[n], prefix+v.Type().Field(i).Name)
			}
		}
		collect("GatewayStats.", reflect.ValueOf(gw.Stats()))
		collect("ShardStats[1].", reflect.ValueOf(gw.ShardStats()[shard]))
		return seen
	}
	seen := surfaced()
	evicted := sh.n[cFlowsEvictedCap].Load() + sh.n[cFlowsEvictedIdle].Load() + sh.n[cFlowsRemoved].Load()
	if fields := seen[evicted]; len(fields) != 1 || fields[0] != "GatewayStats.FlowsEvicted" {
		t.Errorf("eviction-reason slots sum to %d, surfaced in %v, want exactly FlowsEvicted", evicted, fields)
	}
	for v, c := range slot {
		if c == cFlowsEvictedCap || c == cFlowsEvictedIdle || c == cFlowsRemoved {
			continue
		}
		if fields := seen[v]; len(fields) != 1 {
			t.Errorf("counter slot %d surfaced in %d public fields %v, want exactly 1", c, len(fields), fields)
		}
	}
	if es := gw.ShardStats()[0]; es != (EngineStats{}) {
		t.Errorf("the untouched shard reports work: %+v", es)
	}
	wantPanics := sh.n[cPanics].Load()
	if got := gw.PanicsByShard(); got[0] != 0 || got[shard] != wantPanics {
		t.Errorf("PanicsByShard = %v, want [0 %d]", got, wantPanics)
	}
	if h := gw.Health(); h.Panics != wantPanics || h.QuarantinedFlows != sh.n[cQuarantinedFlows].Load() {
		t.Errorf("Health = %+v, want the shard's panic and quarantine counts", h)
	}

	before := gw.ShardStats()
	m2, _ := gatewayMatcher(t, 60)
	if err := gw.SwapRules(m2); err != nil {
		t.Fatal(err)
	}
	if st := gw.Stats(); st.GenerationsRetired != 1 || st.GenerationsLive != 1 {
		t.Fatalf("idle swap did not retire the old generation: %+v", st)
	}
	if after := gw.ShardStats(); !reflect.DeepEqual(after, before) {
		t.Errorf("ShardStats moved across swap + retirement: %+v then %+v", before, after)
	}
}
