package fleet

import (
	"strings"
	"testing"
	"time"

	"harness2/internal/registry"
)

// TestUpgradeCycleNoStaleServing guards the cycle command's contract:
//
//  1. A cycle caller never sees the stopped attempt's Serving. The
//     owner moves the unit to Starting before it acks the cycle, so
//     Upgrade's wait for Serving can only be met by the relaunch, and
//     the registry holds the new components the moment Upgrade returns.
//  2. Close right after a cycle terminates: its stops reach every owner
//     as commands and end in Stopped, whatever the cycle left behind.
//
// Each iteration performs a full deploy → rolling upgrade → verify →
// close cycle.
func TestUpgradeCycleNoStaleServing(t *testing.T) {
	for i := 0; i < 15; i++ {
		func() {
			reg := registry.New()
			sup := newTestSup(t, Config{Launcher: NewSimLauncher(&SimLauncherConfig{Registry: reg})},
				testBox("a", nil), testBox("b", nil))
			d, _ := ParseDescriptor("deploy web\nreplicas 2\ncomponent MatMul\nversion v1\n")
			ids, err := sup.Deploy(d)
			if err != nil {
				t.Fatal(err)
			}
			if err := sup.WaitServing(ctxT(t, 5*time.Second), "web", 2); err != nil {
				t.Fatal(err)
			}
			d2, _ := ParseDescriptor("deploy web\nreplicas 2\ncomponent MatMul,WSTime\nversion v2\n")
			if err := sup.Upgrade(ctxT(t, 10*time.Second), d2); err != nil {
				t.Fatal(err)
			}
			for _, id := range ids {
				st, _, _ := sup.Attach(id, 0)
				if st.State != "serving" || st.Generation != 1 {
					t.Fatalf("iter %d: unit %s after upgrade: state=%s gen=%d", i, id, st.State, st.Generation)
				}
			}
			if reg.Len() != 4 {
				var log strings.Builder
				evs, _ := sup.log.Since(0)
				for _, ev := range evs {
					log.WriteString("\n  " + ev.Kind + " " + ev.Unit + " " + ev.Detail)
				}
				t.Fatalf("iter %d: registry = %d entries after upgrade, want 4; events:%s",
					i, reg.Len(), log.String())
			}
			// Close must terminate even when called right after a cycle —
			// newTestSup's Cleanup does it, but do it eagerly so a hang
			// fails THIS iteration's clock, not the test deadline.
			sup.Close()
		}()
	}
}
