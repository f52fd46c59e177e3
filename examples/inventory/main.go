// Inventory: an interactive session against the inventory-tracking scenario
// from the paper's introduction, in the asynchronous interaction model. Every
// received/shipped edit must re-derive the running stock level (an RR-Chain)
// and the reorder flags; the latency until control returns is the formula-
// graph traversal TACO compresses.
package main

import (
	"fmt"
	"math/rand"
	"time"

	"taco"
	"taco/internal/workload"
)

func main() {
	const days = 3000
	sheet := workload.InventoryTracker(days, rand.New(rand.NewSource(9)))
	eng, err := taco.LoadEngine(sheet)
	if err != nil {
		panic(err)
	}

	stockEnd := taco.Ref{Col: 4, Row: days}
	fmt.Printf("inventory ledger: %d days, stock level D%d = %s\n",
		days, days, eng.Value(stockEnd))

	// A correction arrives for day 2's receipts: control returns as soon as
	// the dirty set is identified; evaluation is a separate, later step (a
	// server runs it on a background worker, see internal/server).
	start := time.Now()
	dirty := eng.SetValue(taco.Ref{Col: 2, Row: 2}, taco.Num(500))
	returned := time.Since(start)

	stale, clean := eng.Peek(stockEnd)
	fmt.Printf("edited B2: control returned in %v, %d cells marked dirty\n",
		returned, taco.CountCells(dirty))
	fmt.Printf("immediately after: D%d = %s (clean=%v — the UI greys it out)\n",
		days, stale, clean)

	eng.RecalculateAll()
	fresh, clean := eng.Peek(stockEnd)
	fmt.Printf("after recalculation: D%d = %s (clean=%v)\n", days, fresh, clean)

	// Audit: which days' reorder flags depend on the reorder threshold G1?
	flagged := eng.Dependents(taco.MustRange("G1"))
	fmt.Printf("cells depending on the reorder threshold G1: %d\n",
		taco.CountCells(flagged))
}
