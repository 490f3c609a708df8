package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"packetstore"
)

func newFS(t *testing.T) (*packetstore.Region, *packetstore.Store, *FS) {
	t.Helper()
	cfg := packetstore.StoreConfig{MetaSlots: 1 << 13, DataSlots: 1 << 13, VerifyOnGet: true}
	r := packetstore.NewRegion(cfg.RegionSize(), packetstore.NoLatencyProfile())
	s, err := packetstore.Open(r, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r, s, New(s)
}

func TestWriteReadFile(t *testing.T) {
	_, _, fs := newFS(t)
	data := make([]byte, 10_000)
	rand.New(rand.NewSource(1)).Read(data)
	if err := fs.WriteFile("report.bin", data); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("report.bin")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read: %d bytes, %v", len(got), err)
	}
	fi, err := fs.Stat("report.bin")
	if err != nil || fi.Size != len(data) || fi.Chunks != 10 {
		t.Fatalf("stat: %+v %v", fi, err)
	}
	if fi.ModTime.IsZero() {
		t.Fatal("no timestamp on inode")
	}
}

func TestEmptyAndSmallFiles(t *testing.T) {
	_, _, fs := newFS(t)
	if err := fs.WriteFile("empty", nil); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("empty")
	if err != nil || len(got) != 0 {
		t.Fatalf("%d bytes, %v", len(got), err)
	}
	if err := fs.WriteFile("tiny", []byte("x")); err != nil {
		t.Fatal(err)
	}
	got, _ = fs.ReadFile("tiny")
	if string(got) != "x" {
		t.Fatal("tiny file corrupted")
	}
}

func TestOverwriteShrinksFile(t *testing.T) {
	_, s, fs := newFS(t)
	fs.WriteFile("f", make([]byte, 5000)) // 5 chunks
	before := s.Len()
	fs.WriteFile("f", make([]byte, 1000)) // 1 chunk: 4 stale chunks removed
	if s.Len() != before-4 {
		t.Fatalf("records %d -> %d, want -4", before, s.Len())
	}
	got, err := fs.ReadFile("f")
	if err != nil || len(got) != 1000 {
		t.Fatalf("%d bytes %v", len(got), err)
	}
}

func TestRemoveAndList(t *testing.T) {
	_, s, fs := newFS(t)
	for i := 0; i < 5; i++ {
		fs.WriteFile(fmt.Sprintf("file%d", i), make([]byte, 2000))
	}
	names, err := fs.List()
	if err != nil || len(names) != 5 {
		t.Fatalf("%v %v", names, err)
	}
	if err := fs.Remove("file2"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Stat("file2"); err != ErrNotExist {
		t.Fatalf("stat removed: %v", err)
	}
	if _, err := fs.ReadFile("file2"); err != ErrNotExist {
		t.Fatalf("read removed: %v", err)
	}
	names, _ = fs.List()
	if len(names) != 4 {
		t.Fatalf("%v", names)
	}
	// All of file2's records are gone (no leaks).
	want := 4 * 3 // 4 files x (inode + 2 chunks)
	if s.Len() != want {
		t.Fatalf("store has %d records, want %d", s.Len(), want)
	}
}

func TestBadNames(t *testing.T) {
	_, _, fs := newFS(t)
	for _, n := range []string{"", "a/b", string([]byte{'a', 0}), string(make([]byte, 300))} {
		if err := fs.WriteFile(n, nil); err != ErrBadName {
			t.Errorf("name %q accepted: %v", n, err)
		}
	}
}

func TestFsckCleanAndOrphans(t *testing.T) {
	_, s, fs := newFS(t)
	fs.WriteFile("good", make([]byte, 3000))
	rep, err := fs.Fsck()
	if err != nil || rep.Files != 1 || rep.OrphanChunks != 0 || len(rep.Corrupt) != 0 {
		t.Fatalf("clean fsck: %+v %v", rep, err)
	}
	// Simulate a crash between chunk and inode commits: orphan chunks.
	s.Put(chunkKey("half-written", 0), make([]byte, 1000))
	s.Put(chunkKey("half-written", 1), make([]byte, 500))
	rep, err = fs.Fsck()
	if err != nil || rep.OrphanChunks != 2 {
		t.Fatalf("orphan fsck: %+v %v", rep, err)
	}
	// Orphans were collected.
	rep, _ = fs.Fsck()
	if rep.OrphanChunks != 0 {
		t.Fatalf("orphans resurrected: %+v", rep)
	}
}

func TestFsckDetectsCorruption(t *testing.T) {
	r, _, fs := newFS(t)
	payload := bytes.Repeat([]byte("FILEDATA"), 200)
	fs.WriteFile("victim", payload)
	idx := bytes.Index(r.Slice(0, r.Size()), []byte("FILEDATAFILEDATA"))
	if idx < 0 {
		t.Fatal("payload not found")
	}
	r.CorruptByte(idx, 0x01)
	rep, err := fs.Fsck()
	if err != nil || len(rep.Corrupt) != 1 {
		t.Fatalf("corruption fsck: %+v %v", rep, err)
	}
}

func TestFilesystemSurvivesCrash(t *testing.T) {
	cfg := packetstore.StoreConfig{MetaSlots: 1 << 13, DataSlots: 1 << 13, VerifyOnGet: true}
	r := packetstore.NewRegion(cfg.RegionSize(), packetstore.NoLatencyProfile())
	s, _ := packetstore.Open(r, cfg)
	fs := New(s)
	data := make([]byte, 8000)
	rand.New(rand.NewSource(2)).Read(data)
	for i := 0; i < 10; i++ {
		if err := fs.WriteFile(fmt.Sprintf("doc%02d", i), data); err != nil {
			t.Fatal(err)
		}
	}
	r.Crash(3)
	s2, err := packetstore.Open(r, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fs2 := New(s2)
	rep, err := fs2.Fsck()
	if err != nil || len(rep.MissingChunks) != 0 || len(rep.Corrupt) != 0 {
		t.Fatalf("post-crash fsck: %+v %v", rep, err)
	}
	for i := 0; i < 10; i++ {
		got, err := fs2.ReadFile(fmt.Sprintf("doc%02d", i))
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("doc%02d lost after crash: %v", i, err)
		}
	}
}
