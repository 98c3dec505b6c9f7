package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// The interprocedural rules: thin consumers of the facts engine
// (callgraph.go, facts.go). All three report through Runner.reportOnce,
// since several passes — or several entrypoints — can derive the same
// finding.

// --- SL010: simpath -----------------------------------------------------

// checkSimPath walks the summaries of every simulation entrypoint
// declared in the pass's package and reports each reachable
// nondeterminism source once, with the shortest call chain from the
// entrypoint. Diagnostics anchor at the offending construct (where
// SL001–SL003 would fire file-locally), and waiverCovers (waiver.go)
// makes a waiver for the local rule suppress this one at the same
// line, so a single reviewed directive clears both findings.
func checkSimPath(p *Pass) {
	fe := p.runner.factsEngine()
	const det = factWallclock | factGlobalRand | factMapRange
	for _, ep := range fe.entrypoints {
		n := ep.node
		if n.pkg != p.Pkg || n.summary&det == 0 {
			continue
		}
		for _, c := range fe.findChains(n, det) {
			key := "SL010|" + p.Fset.Position(c.source.pos).String() + "|" + c.source.desc
			if !p.runner.reportOnce(key) {
				continue
			}
			p.Reportf(c.source.pos, "%s reachable from simulation entrypoint %s: %s",
				factName(c.fact), n.name, c.chainString())
		}
	}
}

// --- SL011: isolation ---------------------------------------------------

// checkIsolation enforces state isolation on simulation-path packages
// (those with functions reachable from the entrypoints): no
// package-level variable written after init may be declared there, and
// no function there may write another package's globals. Variables only
// ever assigned in init (or by their initializers) are effectively
// immutable and exempt — lookup tables stay legal.
func checkIsolation(p *Pass) {
	fe := p.runner.factsEngine()
	if !fe.simPathPkgs[p.Path] {
		return
	}
	g := fe.graph

	// Declarations in this package that some module function mutates.
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, name := range vs.Names {
					if name.Name == "_" {
						continue
					}
					v, ok := p.Info.Defs[name].(*types.Var)
					if !ok {
						continue
					}
					sites := g.writes[v]
					if len(sites) == 0 {
						continue
					}
					p.Reportf(name.Pos(), "package-level var %q on the simulation path is written by %s: pooled Machine instances would share it; move the state into a struct",
						name.Name, writerList(sites))
				}
			}
		}
	}

	// Writes from this package's functions to globals declared outside
	// the simulation-path module packages (stdlib included); breaches
	// of sim-path-declared vars are reported at their declaration.
	for _, v := range g.sortedWrittenVars() {
		if v.Pkg() != nil && fe.simPathPkgs[v.Pkg().Path()] {
			continue
		}
		for _, site := range g.writes[v] {
			if site.node.pkg != p.Pkg {
				continue
			}
			p.Reportf(site.pos, "write to package-level var %s.%s from the simulation path: pooled Machine instances would share it; thread the state through a struct",
				v.Pkg().Name(), v.Name())
		}
	}
}

// writerList names up to three writing functions for an SL011 message.
func writerList(sites []writeSite) string {
	var names []string
	seen := make(map[string]bool)
	for _, s := range sites {
		if !seen[s.node.name] {
			seen[s.node.name] = true
			names = append(names, s.node.name)
		}
	}
	if len(names) > 3 {
		names = append(names[:3], fmt.Sprintf("and %d more", len(names)-3))
	}
	return strings.Join(names, ", ")
}

// --- SL012: fastpath-reach ----------------------------------------------

// checkFastPathReach closes SL007's gap: every call out of a
// //simlint:fastpath file must land on a function that is transitively
// allocation-free (panic paths exempt). The diagnostic anchors at the
// call site in the tagged file — the boundary where a waiver, if the
// escape is architectural (fault handling, event dispatch), belongs.
func checkFastPathReach(p *Pass) {
	fastFiles := make(map[string]bool)
	for _, file := range p.Files {
		if hasFastPathDirective(file) {
			fastFiles[p.Fset.Position(file.Pos()).Filename] = true
		}
	}
	if len(fastFiles) == 0 {
		return
	}
	fe := p.runner.factsEngine()
	for _, n := range fe.graph.nodes {
		if n.pkg != p.Pkg || !fastFiles[p.Fset.Position(n.pos).Filename] {
			continue
		}
		for _, e := range n.out {
			if e.panicArg || e.to.summary&factAllocates == 0 {
				continue
			}
			chain, ok := fe.allocationChain(e.to)
			if !ok {
				continue
			}
			key := "SL012|" + p.Fset.Position(e.pos).String() + "|" + e.to.name
			if !p.runner.reportOnce(key) {
				continue
			}
			p.Reportf(e.pos, "call to %s from a fast-path file can allocate (%s): the zero-alloc contract extends to everything the fast path calls",
				e.to.name, chain.chainString())
		}
	}
}

// --- SL014: shard-isolation ---------------------------------------------

// checkShardWorker enforces state isolation on shard worker bodies:
// functions declared in a //simlint:shardworker file run concurrently
// on scheduler goroutines between barriers (the sharded machine
// engine's kernel phase), so neither they nor anything they
// transitively call may write package-level state — a global one shard
// mutates is visible to every other shard, and the merge stops being a
// pure reduction over per-shard state. Like SL010, each diagnostic
// anchors at the offending write and prints the shortest call chain
// from the worker function that reaches it.
func checkShardWorker(p *Pass) {
	shardFiles := make(map[string]bool)
	for _, file := range p.Files {
		if hasShardWorkerDirective(file) {
			shardFiles[p.Fset.Position(file.Pos()).Filename] = true
		}
	}
	if len(shardFiles) == 0 {
		return
	}
	fe := p.runner.factsEngine()
	for _, n := range fe.graph.nodes {
		if n.pkg != p.Pkg || !shardFiles[p.Fset.Position(n.pos).Filename] {
			continue
		}
		if n.summary&factWritesGlobal == 0 {
			continue
		}
		for _, c := range fe.findChains(n, factWritesGlobal) {
			key := "SL014|" + p.Fset.Position(c.source.pos).String() + "|" + c.source.desc
			if !p.runner.reportOnce(key) {
				continue
			}
			p.Reportf(c.source.pos, "%s reachable from shard worker %s: shards run this concurrently, so shared globals break the deterministic merge: %s",
				factName(c.fact), n.name, c.chainString())
		}
	}
}
