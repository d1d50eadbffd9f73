package salientpp

import (
	"flag"
	"io"
	"slices"
	"testing"
	"time"
)

// TestRunConfigFlagRoundTrip pins the unified flag surface: registered
// flags parse into the struct, checkpoint and training-only flags are
// separate, and defaults survive an empty parse.
func TestRunConfigFlagRoundTrip(t *testing.T) {
	run := RunConfig{Codec: "fp32"}
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	run.RegisterFlags(fs)
	run.RegisterCheckpointFlags(fs)
	run.RegisterTrainFlags(fs)
	if err := fs.Parse([]string{
		"-codec", "int8", "-parallelism", "4",
		"-grad-codec", "fp16", "-elastic", "-stall-timeout", "2s",
		"-checkpoint-dir", "ckpts", "-checkpoint-every-rounds", "50",
		"-checkpoint-retain", "5", "-resume",
	}); err != nil {
		t.Fatal(err)
	}
	if run.Codec != "int8" || run.Parallelism != 4 {
		t.Fatalf("parsed %+v", run)
	}
	if run.GradCodec != "fp16" {
		t.Fatalf("gradient flags parsed %+v", run)
	}
	if !run.Elastic || run.StallTimeout != 2*time.Second {
		t.Fatalf("elastic flags parsed %+v", run)
	}
	if run.Checkpoint.Dir != "ckpts" || run.Checkpoint.EveryRounds != 50 || run.Checkpoint.Retain != 5 || !run.Resume {
		t.Fatalf("checkpoint flags parsed %+v resume=%v", run.Checkpoint, run.Resume)
	}
	if err := run.Validate(); err != nil {
		t.Fatal(err)
	}

	var dflt RunConfig
	fs2 := flag.NewFlagSet("dflt", flag.ContinueOnError)
	dflt.RegisterFlags(fs2)
	if err := fs2.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if err := dflt.Validate(); err != nil {
		t.Fatalf("zero-value RunConfig must validate: %v", err)
	}

	// The shared surface is exactly what gnnserve exposes: the gradient
	// and elastic knobs belong to the training harness alone.
	var names []string
	fs2.VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
	if want := []string{"codec", "parallelism"}; !slices.Equal(names, want) {
		t.Fatalf("RegisterFlags installed %v, want %v", names, want)
	}
}

// TestRunConfigValidate pins the early error surface.
func TestRunConfigValidate(t *testing.T) {
	for name, rc := range map[string]RunConfig{
		"bad codec":          {Codec: "fp8"},
		"bad grad codec":     {GradCodec: "fp8"},
		"negative workers":   {Parallelism: -1},
		"resume without dir": {Resume: true},
	} {
		if err := rc.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, rc)
		}
	}
}
