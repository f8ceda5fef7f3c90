package xcheck

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"opendrc/internal/core"
	"opendrc/internal/rules"
	"opendrc/internal/synth"
)

func keys(vs []rules.Violation) map[string]bool {
	out := make(map[string]bool)
	for _, v := range vs {
		out[fmt.Sprintf("%s|%v|%d", v.Rule, v.Marker.Box, v.Marker.Dist)] = true
	}
	return out
}

func TestMatchesOpenDRCOnSupportedRules(t *testing.T) {
	lo, _, err := synth.Load("uart", 0.8)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range synth.Deck() {
		res, err := CheckContext(context.Background(), lo, r, Options{})
		if errors.Is(err, ErrUnsupported) {
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", r.ID, err)
		}
		eng := core.New(core.Options{Mode: core.Sequential})
		if err := eng.AddRules(r); err != nil {
			t.Fatal(err)
		}
		rep, err := eng.CheckContext(context.Background(), lo)
		if err != nil {
			t.Fatal(err)
		}
		xk, ok := keys(res.Violations), keys(rep.Violations)
		if len(xk) != len(ok) {
			t.Errorf("%s: xcheck %d vs opendrc %d", r.ID, len(xk), len(ok))
			continue
		}
		for k := range xk {
			if !ok[k] {
				t.Errorf("%s: xcheck-only violation %s", r.ID, k)
			}
		}
	}
}

func TestUnsupportedRules(t *testing.T) {
	lo, _, err := synth.Load("uart", 0.2)
	if err != nil {
		t.Fatal(err)
	}
	unsupported := []string{"M1.A.1", "M1.RECT.1", "M2.NAME.1"}
	for _, id := range unsupported {
		r, err := synth.RuleByID(id)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := CheckContext(context.Background(), lo, r, Options{}); !errors.Is(err, ErrUnsupported) {
			t.Errorf("%s: expected ErrUnsupported, got %v", id, err)
		}
	}
}

func TestTimelinePopulated(t *testing.T) {
	lo, _, err := synth.Load("uart", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	r, _ := synth.RuleByID("M2.S.1")
	res, err := CheckContext(context.Background(), lo, r, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Modeled <= 0 {
		t.Error("modeled time missing")
	}
	if res.Device.DeviceBusy() <= 0 {
		t.Error("device never busy")
	}
	kernelSeen := false
	for _, rec := range res.Device.Timeline() {
		if rec.Kind == "kernel" {
			kernelSeen = true
		}
	}
	if !kernelSeen {
		t.Error("no kernels on timeline")
	}
}

func TestInvalidRule(t *testing.T) {
	lo, _, err := synth.Load("uart", 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CheckContext(context.Background(), lo, rules.Rule{Kind: rules.Spacing}, Options{}); err == nil {
		t.Error("invalid rule accepted")
	}
}

func TestCheckContextCancelled(t *testing.T) {
	lo, _, err := synth.Load("uart", 0.2)
	if err != nil {
		t.Fatal(err)
	}
	r, err := synth.RuleByID("M1.S.1")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := CheckContext(ctx, lo, r, Options{})
	if res != nil {
		t.Fatal("cancelled run returned a result")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
}
