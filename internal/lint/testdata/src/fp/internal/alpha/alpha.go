// Package alpha exercises the faultpoint analyzer: literal names, shape,
// package ownership, duplicate sites, and the docs cross-check.
package alpha // want `documents fault point "alpha\.stale\.act" for this package, but nothing fires it`

import "fp/internal/faultinject"

func Documented() error {
	return faultinject.Fire("alpha.thing.act")
}

func Fenced() error {
	return faultinject.Fire("alpha.fenced.act")
}

func Undocumented() error {
	return faultinject.Fire("alpha.missing.act") // want `fault point "alpha\.missing\.act" is not documented in docs/OPERATIONS\.md`
}

func NonLiteral(name string) error {
	return faultinject.Fire(name) // want `point name must be a string literal`
}

func NonLiteralBatch(name string) error {
	return faultinject.FireN(name, 2) // want `point name must be a string literal`
}

func BatchDuplicate() error {
	return faultinject.FireN("alpha.fenced.act", 2) // want `fired from 2 call sites in this package`
}

func BadShape() error {
	return faultinject.Fire("alpha.bad") // want `is not shaped pkg\.component\.action`
}

func WrongOwner() error {
	return faultinject.Fire("beta.thing.act") // want `claims package "beta" but fires from package "alpha"`
}

func Duplicate() error {
	return faultinject.Fire("alpha.thing.act") // want `fired from 2 call sites in this package`
}

func Observed() uint64 {
	return faultinject.Hits("alpha.thing.act")
}
