package main

import (
	"flag"
	"reflect"
	"testing"
)

// TestFlagSurface pins acctd's flag names and defaults: the shared
// runner set plus its own -accounts.
func TestFlagSurface(t *testing.T) {
	want := map[string]string{
		"accounts":          "",
		"audit-file":        "",
		"fault-seed":        "1",
		"fault-spec":        "",
		"fsync":             "always",
		"ledger-dir":        "",
		"listen":            "127.0.0.1:8092",
		"log-format":        "text",
		"log-level":         "info",
		"metrics-addr":      "",
		"name":              "bank",
		"realm":             "EXAMPLE.ORG",
		"repl-sync-timeout": "0s",
		"replicate-from":    "",
		"rpc-workers":       "0",
		"slo":               "",
		"snapshot-interval": "1m0s",
		"standby":           "false",
		"state":             "./state",
		"trace-buffer":      "256",
		"trace-file":        "",
	}
	got := map[string]string{}
	newDaemon().Flags.VisitAll(func(f *flag.Flag) { got[f.Name] = f.DefValue })
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("flag surface changed:\n got  %v\n want %v", got, want)
	}
}
