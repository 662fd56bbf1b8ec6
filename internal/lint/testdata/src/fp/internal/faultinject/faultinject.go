// Package faultinject is a fixture registry for the faultpoint analyzer:
// the same Fire/FireN/Hits surface as corona's internal/faultinject.
package faultinject

func Fire(name string) error { return nil }

func FireN(name string, n int) error { return nil }

func Hits(name string) uint64 { return 0 }
