package faultinject

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
)

func TestNilInjectorIsInert(t *testing.T) {
	var in *Injector
	if err := in.FireCancel("anything", nil); err != nil {
		t.Fatalf("nil injector fired: %v", err)
	}
}

func TestUnarmedPointIsInert(t *testing.T) {
	in := New()
	in.Set("other", Fault{Err: ErrInjected})
	if err := in.FireCancel("this", nil); err != nil {
		t.Fatalf("unarmed point fired: %v", err)
	}
}

func TestErrFaultAndCount(t *testing.T) {
	in := New()
	in.Set("p", Fault{Err: ErrInjected, Count: 2})
	for i := 0; i < 2; i++ {
		err := in.FireCancel("p", nil)
		if !errors.Is(err, ErrInjected) {
			t.Fatalf("firing %d: err = %v, want ErrInjected", i, err)
		}
		if !strings.Contains(err.Error(), "p:") {
			t.Errorf("firing %d: error %q does not name the point", i, err)
		}
	}
	if err := in.FireCancel("p", nil); err != nil {
		t.Fatalf("point fired past its count: %v", err)
	}
}

func TestClearDisarms(t *testing.T) {
	in := New()
	in.Set("p", Fault{Err: ErrInjected})
	in.Clear("p")
	if err := in.FireCancel("p", nil); err != nil {
		t.Fatalf("cleared point fired: %v", err)
	}
}

func TestPanicFault(t *testing.T) {
	in := New()
	in.Set("p", Fault{Panic: "boom"})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("panic fault did not panic")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "p") || !strings.Contains(msg, "boom") {
			t.Fatalf("panic value %v does not carry point and message", r)
		}
	}()
	in.FireCancel("p", nil)
}

func TestDelayFault(t *testing.T) {
	in := New()
	in.Set("p", Fault{Delay: 20 * time.Millisecond})
	start := time.Now()
	if err := in.FireCancel("p", nil); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 20*time.Millisecond {
		t.Errorf("delay fault slept only %v", d)
	}
}

// A fired cancellation token cuts the delay short, and the point
// reports the cancellation instead of its own outcome — the same shape
// a slow real stage under a request deadline has.
func TestDelayFaultCancellable(t *testing.T) {
	in := New()
	in.Set("p", Fault{Delay: time.Hour, Err: ErrInjected})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cc := engine.NewCancel(ctx, 0)
	start := time.Now()
	err := in.FireCancel("p", &cc)
	if !engine.IsCanceled(err) {
		t.Fatalf("err = %v, want CanceledError", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("cancelled delay still slept %v", d)
	}
}

func TestParse(t *testing.T) {
	in, err := Parse("enumerate:err*1, graph-build:err, handler:delay=5ms")
	if err != nil {
		t.Fatal(err)
	}
	if err := in.FireCancel(PointEnumerate, nil); !errors.Is(err, ErrInjected) {
		t.Errorf("enumerate: %v, want ErrInjected", err)
	}
	if err := in.FireCancel(PointEnumerate, nil); err != nil {
		t.Errorf("enumerate past *1 count: %v", err)
	}
	if err := in.FireCancel(PointGraphBuild, nil); !errors.Is(err, ErrInjected) {
		t.Errorf("graph-build: %v, want ErrInjected", err)
	}
	if err := in.FireCancel(PointHandler, nil); err != nil {
		t.Errorf("handler (delay only): %v", err)
	}
	for _, p := range points {
		if _, err := Parse(p + ":err"); err != nil {
			t.Errorf("Parse(%q:err): %v", p, err)
		}
	}

	if in, err := Parse("  "); err != nil || in != nil {
		t.Errorf("blank spec: in=%v err=%v, want nil,nil", in, err)
	}
	for _, bad := range []string{
		"noaction",
		"simulate:",
		":err",
		"simulate:frobnicate",
		"simulate:corrupt",
		"simulate:delay=xyz",
		"simulate:err*0",
		"simulate:err*x",
		"simulate:err*",
		"accept:err",
		"grpah-load:err",
		"graph-load:err",
		"oracle-load:err",
		"simulate:err,p:err",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}
