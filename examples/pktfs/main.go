// Pktfs: files whose metadata is persistent packet metadata (the paper's
// §4.2 use case), on top of the public packetstore API.
//
// The example writes a handful of files, leaves one write half done (its
// chunks committed, its inode not), cuts the power, recovers the store by
// its metadata scan, and runs Fsck: every file reads back byte for byte,
// the half-written file's chunks are collected as orphans, and the
// stored checksums verify every byte.
//
//	go run ./examples/pktfs
package main

import (
	"bytes"
	"fmt"
	"log"
	"math/rand"

	"packetstore"
)

func main() {
	cfg := packetstore.StoreConfig{MetaSlots: 1 << 13, DataSlots: 1 << 13}
	region := packetstore.NewRegion(cfg.RegionSize(), packetstore.NoLatencyProfile())
	store, err := packetstore.Open(region, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fs := New(store)

	rng := rand.New(rand.NewSource(1))
	files := map[string][]byte{}
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("doc%02d", i)
		data := make([]byte, 500+rng.Intn(8000))
		rng.Read(data)
		if err := fs.WriteFile(name, data); err != nil {
			log.Fatal(err)
		}
		files[name] = data
	}
	if err := fs.Remove("doc03"); err != nil {
		log.Fatal(err)
	}
	delete(files, "doc03")
	// A write cut short: two chunks committed, the inode never was.
	for i := 0; i < 2; i++ {
		if err := store.Put(chunkKey("draft", i), make([]byte, fs.chunkSize)); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("wrote %d files (%d records), one more half written\n", len(files), store.Len())

	fmt.Println("POWER FAILURE: unflushed cache lines are lost")
	region.Crash(7)

	store2, err := packetstore.Open(region, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fs2 := New(store2)
	fmt.Printf("recovered %d records by the metadata scan\n", store2.Len())
	rep, err := fs2.Fsck()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fsck: %d files, %d orphan chunks collected, %d missing chunks, %d corrupt records\n",
		rep.Files, rep.OrphanChunks, len(rep.MissingChunks), len(rep.Corrupt))
	if rep.Files != len(files) || rep.OrphanChunks != 2 || len(rep.MissingChunks) != 0 || len(rep.Corrupt) != 0 {
		log.Fatal("fsck report does not match what was written")
	}
	for name, want := range files {
		got, err := fs2.ReadFile(name)
		if err != nil || !bytes.Equal(got, want) {
			log.Fatalf("%s lost after the crash: %v", name, err)
		}
	}
	fmt.Println("done: every file reads back byte for byte")
}
