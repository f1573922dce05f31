package main

import (
	"flag"
	"reflect"
	"testing"
)

// TestFlagSurface pins filed's flag names and defaults: the runner's
// non-durable set (no ledger or replication flags) plus -chain-cache and
// its own -acl — unchanged from before the runner existed.
func TestFlagSurface(t *testing.T) {
	want := map[string]string{
		"acl":          "",
		"audit-file":   "",
		"chain-cache":  "1024",
		"fault-seed":   "1",
		"fault-spec":   "",
		"listen":       "127.0.0.1:8093",
		"log-format":   "text",
		"log-level":    "info",
		"metrics-addr": "",
		"name":         "file/srv1",
		"realm":        "EXAMPLE.ORG",
		"rpc-workers":  "0",
		"slo":          "",
		"state":        "./state",
		"trace-buffer": "256",
		"trace-file":   "",
	}
	got := map[string]string{}
	newDaemon().Flags.VisitAll(func(f *flag.Flag) { got[f.Name] = f.DefValue })
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("flag surface changed:\n got  %v\n want %v", got, want)
	}
}
