package psconfig

import (
	"bytes"
	"encoding/json"
	"strconv"
	"testing"
)

// FuzzWireCommand feeds arbitrary bytes through the wire server's
// request decode into FromWire. No input panics. A decoded command is
// accepted exactly when ParseConfigP4 accepts the arguments an
// administrator would type for it, and then parses to the same Command.
// An accepted command survives ToWire, JSON and the decode again
// unchanged.
func FuzzWireCommand(f *testing.F) {
	limit := ServeOptions{}.withDefaults().MaxRequestBytes
	f.Fuzz(func(t *testing.T, in []byte) {
		w, err := decodeWire(bytes.NewReader(in), limit)
		if err != nil {
			return
		}
		cmd, wireErr := FromWire(w)
		cli, cliErr := ParseConfigP4(cliArgs(w))
		if (wireErr == nil) != (cliErr == nil) {
			t.Fatalf("%+v: wire error %v, CLI error %v", w, wireErr, cliErr)
		}
		if wireErr != nil {
			return
		}
		if cmd != cli {
			t.Fatalf("%+v: wire parses to %+v, CLI to %+v", w, cmd, cli)
		}
		if got := cmd.ToWire(); got != w {
			t.Fatalf("%+v: ToWire gives %+v", w, got)
		}
		line, err := json.Marshal(cmd.ToWire())
		if err != nil {
			t.Fatal(err)
		}
		w2, err := decodeWire(bytes.NewReader(line), limit)
		if err != nil {
			t.Fatalf("%s: %v", line, err)
		}
		if back, err := FromWire(w2); err != nil || back != cmd {
			t.Fatalf("%s: round trip gives %+v, %v; want %+v", line, back, err, cmd)
		}
	})
}

// cliArgs renders a wire command as config-P4 arguments, in the order
// Figure 6 writes them: a zero field is a flag not given.
func cliArgs(w WireCommand) []string {
	var args []string
	if w.Metric != "" {
		args = append(args, "--metric", w.Metric)
	}
	if w.Alert {
		args = append(args, "--alert")
	}
	if w.Threshold != 0 {
		args = append(args, "--threshold", strconv.FormatFloat(w.Threshold, 'e', -1, 64))
	}
	if w.SamplesPerSecond != 0 {
		args = append(args, "--samples_per_second", strconv.FormatFloat(w.SamplesPerSecond, 'e', -1, 64))
	}
	return args
}
