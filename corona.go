// Package corona is a full reproduction, in Go, of the system described in
// "Corona: System Implications of Emerging Nanophotonic Technology"
// (Vantrease et al., ISCA 2008): a 256-core, 64-cluster NUMA architecture
// interconnected by an optically arbitrated DWDM photonic crossbar
// (20.48 TB/s), an optical broadcast bus, and optically connected memory
// (10.24 TB/s), evaluated against electrical 2D-mesh / electrically
// connected memory baselines.
//
// The package is a façade over the simulation library in internal/:
//
//   - Client is the execution entry point: every call takes a
//     context.Context and returns (Result, error) — invalid input is a
//     *ConfigError, a stopped run a *CanceledError — with detailed
//     finite-buffer models of the crossbars, meshes, token arbitration,
//     hubs, MSHRs, and memory controllers underneath. Client.Submit runs a
//     sweep as an asynchronous Job whose cells stream from Job.Results as
//     shards finish; docs/API.md documents the model and the corona-serve
//     HTTP daemon built on it (cmd/corona-serve).
//   - NewSweep prepares the paper's full 5-configuration x 15-workload
//     matrix and renders Figures 8-11 as tables. Sweep.Run fans the
//     independent cells out over a bounded worker pool (Workers option,
//     GOMAXPROCS by default) with derived per-workload seeds, and can
//     persist finished cells in an on-disk cache (CacheDir option).
//   - NewMatrixSweep generalizes the same engine to any configurations x
//     workloads matrix; CustomConfig describes a machine over any registered
//     fabric, LoadScenario reads a whole matrix from JSON, and RegisterFabric
//     plugs an entirely new interconnect model into all of the above — see
//     docs/ARCHITECTURE.md for the registry design and a walkthrough.
//   - Table1/Table2/Table3/Table4 reproduce the paper's analytic tables.
//   - Client.Replay replays an annotated L2-miss trace (package-format
//     traces are produced by cmd/corona-tracegen or the cluster trace
//     engine).
//
// All simulated time is in 5 GHz clock cycles; results report nanoseconds
// and TB/s. Runs are deterministic for a given seed, and sweeps are
// bit-identical for every worker count — the seed-derivation scheme and the
// exact guarantee are documented in docs/DETERMINISM.md.
package corona

import (
	"corona/internal/config"
	"corona/internal/core"
	"corona/internal/noc"
	"corona/internal/photonic"
	"corona/internal/splash"
	"corona/internal/stats"
	"corona/internal/trace"
	"corona/internal/traffic"
)

// SystemConfig declaratively describes one simulated machine: a registered
// fabric name plus parameters, a memory interconnect, and cluster/MSHR/hub
// sizing. The paper's five machines are presets (Configurations); arbitrary
// machines come from CustomConfig or a JSON scenario.
type SystemConfig = config.System

// MemoryKind selects the off-stack memory interconnect of a SystemConfig.
type MemoryKind = config.MemoryKind

// Memory interconnect options: optically connected memory (10.24 TB/s
// aggregate) and the electrical baseline (0.96 TB/s).
const (
	OCM = config.OCM
	ECM = config.ECM
)

// Fabric describes a pluggable interconnect: a builder plus analytic
// metadata (bisection bandwidth, power model, channel utilization).
type Fabric = noc.Fabric

// FabricParams is the sizing input a fabric builder receives.
type FabricParams = noc.FabricParams

// Network is the interface every interconnect model implements.
type Network = noc.Network

// RegisterFabric adds a custom interconnect to the fabric registry, making
// it buildable by name from CustomConfig, JSON scenarios, and sweeps. Call
// it from an init function or before building systems; it panics on
// duplicate or incomplete registrations. docs/ARCHITECTURE.md walks through
// a complete example.
func RegisterFabric(f Fabric) { noc.Register(f) }

// Fabrics returns the registered fabric names, sorted ("hmesh", "lmesh",
// "swmr", "xbar", plus anything registered at runtime).
func Fabrics() []string { return noc.Names() }

// CustomConfig describes a machine over any registered fabric with the
// paper's structural defaults (64 clusters, 64 MSHRs, 4-cycle hub); adjust
// the returned struct for anything else. An empty label derives
// "<Fabric>/<Mem>". Params may be nil for the fabric's published defaults.
func CustomConfig(label, fabric string, mem MemoryKind, params map[string]int) SystemConfig {
	return config.Custom(label, fabric, mem, params)
}

// ParseConfigName resolves a preset label such as "XBar/OCM" or "SWMR/ECM",
// rejecting unknown names with the valid vocabulary in the error.
func ParseConfigName(name string) (SystemConfig, error) { return config.ParseName(name) }

// Workload describes an offered traffic pattern (see internal/traffic).
type Workload = traffic.Spec

// Result is one simulation outcome: runtime, achieved bandwidth, latency,
// and power — one bar of each of Figures 8-11.
type Result = core.Result

// Sweep is the full experiment matrix behind the paper's figures.
type Sweep = core.Sweep

// Table is a rendered result table.
type Table = stats.Table

// TraceRecord is one annotated L2 miss.
type TraceRecord = trace.Record

// Corona returns the flagship XBar/OCM configuration.
func Corona() SystemConfig { return config.Corona() }

// Configurations returns the five simulated configurations in the paper's
// order: LMesh/ECM (baseline), HMesh/ECM, LMesh/OCM, HMesh/OCM, XBar/OCM.
func Configurations() []SystemConfig { return config.Combos() }

// SyntheticWorkloads returns Table 3's four synthetic patterns.
func SyntheticWorkloads() []Workload { return traffic.Synthetic() }

// SplashWorkloads returns the eleven SPLASH-2 application models.
func SplashWorkloads() []Workload { return splash.Specs() }

// AllWorkloads returns all fifteen workloads in figure order.
func AllWorkloads() []Workload { return core.AllWorkloads() }

// Client is the context-aware execution entry point: one-shot runs, trace
// replays, config comparisons, and streaming sweep Jobs, all returning
// typed errors instead of panicking. A Client is immutable and safe for
// concurrent use — build one per process (or per server) with NewClient.
type Client = core.Client

// ClientOption configures a NewClient call.
type ClientOption = core.ClientOption

// Job is a submitted, asynchronously running sweep: consume cells from
// Job.Results as shards finish, or block on Job.Wait for the barrier.
type Job = core.Job

// CellResult is one completed sweep cell as streamed from Job.Results.
type CellResult = core.CellResult

// ConfigError marks invalid configuration or scenario input; test with
// errors.As. Servers map it to a 4xx, CLIs to a usage error.
type ConfigError = core.ConfigError

// CanceledError reports a run stopped by context cancellation, with its
// progress at the stop; it unwraps to the context's error, so
// errors.Is(err, context.Canceled) holds.
type CanceledError = core.CanceledError

// NewClient returns a Client with the given execution defaults.
func NewClient(opts ...ClientOption) *Client { return core.NewClient(opts...) }

// WithWorkers sets a client's default worker pool size (0 = GOMAXPROCS,
// 1 = sequential).
func WithWorkers(n int) ClientOption { return core.WithWorkers(n) }

// WithCacheDir sets a client's on-disk sweep result cache directory.
func WithCacheDir(dir string) ClientOption { return core.WithCacheDir(dir) }

// NewSweep prepares the 5x15 experiment matrix at `requests` misses per
// cell. Run it with Sweep.Run(ctx, ...) — optionally with Workers,
// CacheDir, and OnProgress — or submit it as a streaming Job with
// (*Client).Submit, then Figure8..Figure11 for the tables.
func NewSweep(requests int, seed uint64) *Sweep { return core.NewSweep(requests, seed) }

// NewMatrixSweep prepares an arbitrary configs x workloads matrix on the
// same engine, with the same any-worker-count determinism guarantee and
// cache. Order configs baseline-first: the speedup-1 column is "LMesh/ECM"
// when present, otherwise the first config.
func NewMatrixSweep(configs []SystemConfig, workloads []Workload, requests int, seed uint64) *Sweep {
	return core.NewMatrixSweep(configs, workloads, requests, seed)
}

// Scenario is a fully resolved experiment description loaded from JSON.
type Scenario = core.Scenario

// LoadScenario reads a JSON scenario file — machines (presets or declarative
// fabric descriptions), workloads, requests, seed — validating every fabric
// name, parameter key, and workload against the registry and Table 3.
// Scenario.Sweep() puts it on the engine.
func LoadScenario(path string) (*Scenario, error) { return core.LoadScenario(path) }

// SweepOption configures a Sweep.Run invocation.
type SweepOption = core.Option

// SweepProgress is the per-cell completion event delivered to OnProgress.
type SweepProgress = core.Progress

// Workers bounds the sweep worker pool: 0 (the default) means GOMAXPROCS,
// 1 forces the sequential debugging path. Results are identical either way
// (docs/DETERMINISM.md).
func Workers(n int) SweepOption { return core.Workers(n) }

// CacheDir persists finished sweep cells under dir, keyed by
// (config, workload, requests, seed), so repeated sweeps re-simulate only
// invalidated cells.
func CacheDir(dir string) SweepOption { return core.CacheDir(dir) }

// OnProgress registers a serialized per-cell completion callback.
func OnProgress(fn func(SweepProgress)) SweepOption { return core.OnProgress(fn) }

// Table1 returns the paper's resource configuration table.
func Table1() *Table { return config.Table1() }

// Table2 returns the optical resource inventory (waveguide and ring counts).
func Table2() *Table { return photonic.InventoryTable(photonic.DefaultGeometry()) }

// Table3 returns the benchmark setup table.
func Table3() *Table { return config.Table3() }

// Table4 returns the OCM-vs-ECM memory interconnect comparison.
func Table4() *Table { return config.Table4() }

// CrossbarBudget returns the worst-case optical power budget of a crossbar
// channel at the given per-wavelength launch power (dBm).
func CrossbarBudget(launchDBm float64) *photonic.LinkBudget {
	return photonic.CrossbarWorstCaseBudget(launchDBm)
}

// OCMChainBudget returns the optical budget of an OCM fiber loop through n
// daisy-chained memory modules.
func OCMChainBudget(launchDBm float64, n int) *photonic.LinkBudget {
	return photonic.OCMBudget(launchDBm, n)
}
