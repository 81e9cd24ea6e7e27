// Fuse_custom shows the artifact's §A.6 customization path: define a new
// atomic cache coherence protocol in the PCC-like description language,
// parse it, let HeteroGen fuse it with a built-in protocol, and validate
// the result — all without touching the library. The built-in protocols
// are written the same way: see internal/protocols/pcc.
//
// The custom protocol is a write-through valid/invalid design ("WTVI")
// that enforces SC through blocking write-throughs and
// invalidate-on-write at the directory.
package main

import (
	"fmt"
	"log"
	"strings"

	"heterogen/internal/core"
	"heterogen/internal/litmus"
	"heterogen/internal/protocols"
	"heterogen/internal/spec"
)

const wtvi = `
# WTVI: a blocking write-through protocol. Stores write through to the
# directory and wait for the ack; the directory invalidates all sharers
# before acknowledging, so SWMR holds at write boundaries and the
# coherence interface enforces SC.
protocol WTVI model SC acktype InvAck

message GetV req
message WT req data
message Data resp data
message WTAck resp data
message InvAck resp
message Inv fwd

cache init I stable I V
  I Load -> IV_D : send GetV dir
  IV_D msg Data -> V : loadmsg, coredone
  V Load -> V : coredone
  V Evict -> I
  V msg Inv -> I : send InvAck msgreq
  # A stale Inv can arrive after a silent eviction: acknowledge it.
  # (Without this row the model checker finds the deadlock immediately —
  # try deleting it.)
  I msg Inv -> I : send InvAck msgreq
  I Store -> IW_A : send WT dir store
  V Store -> IW_A : send WT dir store
  IW_A msg WTAck ack=0 -> V : loadmsg, coredone
  IW_A msg WTAck ack>0 -> IW_W : loadmsg, setacks
  IW_A msg Inv -> IW_A : send InvAck msgreq
  IW_W lastack -> V : coredone
  IW_W msg Inv -> IW_W : send InvAck msgreq

dir init I stable I
  I msg GetV -> I : send Data msgsrc mem, addsharer
  I msg WT -> I : writemem, invsharers Inv, clearsharers, sendack WTAck msgsrc mem, addsharer
`

func main() {
	custom, err := spec.ParsePCC(wtvi)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("parsed custom protocol %s (model %s): %d cache rows, %d dir rows\n",
		custom.Name, custom.Model, len(custom.Cache.Rows), len(custom.Dir.Rows))

	fusion, err := core.Fuse(core.Options{},
		protocols.MustByName(protocols.NameRCCO), custom)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(fusion.Describe())

	// The customization path runs both ways: the fused directory compiles
	// into a flat table whose projection gives the Table II counts and
	// exports in the same PCC-like language the custom protocol came in as
	// (`heterogen -emit pcc` is the CLI spelling of this step).
	entry, cf, err := core.EnumerateCompiled(fusion, true, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("merged directory: %d states, %d transitions\n", entry.States, entry.Transitions)
	flat, err := cf.Protocol()
	if err != nil {
		log.Fatal(err)
	}
	pcc := spec.ExportPCC(flat)
	if _, err := spec.ParsePCC(pcc); err != nil {
		log.Fatal("compiled projection does not re-parse: ", err)
	}
	fmt.Printf("\ncompiled table: %d interned (directory,memory) states, %d transitions; PCC projection round-trips (%d lines)\n",
		cf.DirStates(), cf.Transitions(), strings.Count(pcc, "\n"))
	for _, line := range strings.SplitN(pcc, "\n", 4)[:3] {
		fmt.Println("  ", line)
	}

	fmt.Println("\nlitmus validation (MP and SB, both allocations):")
	for _, name := range []string{"MP", "SB"} {
		shape, _ := litmus.ShapeByName(name)
		for _, assign := range litmus.Allocations(2, 2, false) {
			r := litmus.RunFused(fusion, shape, assign, litmus.Options{})
			fmt.Println(" ", r)
			if !r.Pass() {
				log.Fatal("custom fusion failed validation")
			}
		}
	}
	fmt.Println("fuse_custom: custom protocol fused and validated")
}
