package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"proxykit/internal/obs"
)

// counters is one reading of the program's own metrics registry
// (obs.Default), taken through the same JSON rendering /metrics serves.
// Per-layer figures that come from the program are differences between
// two readings; the benchmark adds no instrumentation of its own inside
// the program.
type counters map[string]json.RawMessage

func readCounters() (counters, error) {
	var buf bytes.Buffer
	if err := obs.Default.WriteJSON(&buf); err != nil {
		return nil, fmt.Errorf("read obs registry: %w", err)
	}
	var c counters
	if err := json.Unmarshal(buf.Bytes(), &c); err != nil {
		return nil, fmt.Errorf("parse obs registry: %w", err)
	}
	return c, nil
}

// child returns the raw value of name, or of its labeled child (label
// is "k=v,..." as WriteJSON keys it). Families with no samples yet
// render as {} and read as absent.
func (c counters) child(name, label string) json.RawMessage {
	raw, ok := c[name]
	if !ok || label == "" {
		return raw
	}
	var children map[string]json.RawMessage
	if json.Unmarshal(raw, &children) != nil {
		return nil
	}
	return children[label]
}

// value reads a counter or gauge; absent reads as 0.
func (c counters) value(name, label string) float64 {
	var v float64
	_ = json.Unmarshal(c.child(name, label), &v) // absent or {} leaves 0
	return v
}

// hist reads a histogram's sum and count; absent reads as zeros.
func (c counters) hist(name, label string) (sum float64, count float64) {
	var h struct {
		Sum   float64 `json:"sum"`
		Count float64 `json:"count"`
	}
	_ = json.Unmarshal(c.child(name, label), &h) // absent or {} leaves zeros
	return h.Sum, h.Count
}

// counterDelta is the change between two readings.
type counterDelta struct{ before, after counters }

func (d counterDelta) value(name, label string) float64 {
	return d.after.value(name, label) - d.before.value(name, label)
}

// mean is a histogram's mean over the interval and how many
// observations it rests on; zeros when nothing was observed.
func (d counterDelta) mean(name, label string) (mean, count float64) {
	s1, c1 := d.after.hist(name, label)
	s0, c0 := d.before.hist(name, label)
	if c1 <= c0 {
		return 0, 0
	}
	return (s1 - s0) / (c1 - c0), c1 - c0
}

// meanMicros is mean for a histogram of seconds, in µs.
func (d counterDelta) meanMicros(name, label string) (mean, count float64) {
	mean, count = d.mean(name, label)
	return mean * 1e6, count
}

// ratio is num/(num+den) over the interval; 0 when neither moved.
func (d counterDelta) ratio(num, den string) float64 {
	n, m := d.value(num, ""), d.value(den, "")
	if n+m == 0 {
		return 0
	}
	return n / (n + m)
}
