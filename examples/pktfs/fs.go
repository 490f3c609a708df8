// The paper's second use case (§4.2): a file system whose metadata is
// persistent packet metadata.
//
// The paper sketches PM file systems in which "current inode structures
// would be simplified, and packet metadata blocks will be maintained by
// the file system alongside inode blocks": an inode's name, timestamp,
// checksum and data-block pointers are exactly the fields a persistent
// packet-metadata record already carries. FS realizes the sketch on top
// of the packetstore:
//
//   - an inode is a record under "i/<name>" whose value encodes the file
//     size and chunk count — its timestamp is the record's (NIC) time
//     stamp, its integrity comes from the record checksum;
//   - file data is a sequence of chunk records "d/<name>/<chunk#>", each
//     a packet-metadata record pointing at payload bytes in the PM data
//     area, each carrying its own transport-derived (or computed)
//     checksum.
//
// Files written over the network through the kvserver inherit zero-copy
// placement and checksum harvesting chunk by chunk; files written through
// this API take the copy path. Both recover by the store's metadata scan,
// and Fsck re-verifies every byte of every file against the stored sums.

package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"packetstore"
)

// FS is a file system view over a packetstore.
type FS struct {
	s *packetstore.Store
	// ChunkSize bounds each data record (default: half a data buffer, so
	// chunk payloads never span data slots).
	chunkSize int
}

// Errors.
var (
	ErrNotExist = errors.New("pktfs: file does not exist")
	ErrBadName  = errors.New("pktfs: invalid file name")
)

// New creates a file-system view over store. Files and KV records share
// the store; pktfs keys are namespaced under "i/" and "d/".
func New(store *packetstore.Store) *FS {
	return &FS{s: store, chunkSize: 1024}
}

func inodeKey(name string) []byte { return []byte("i/" + name) }

func chunkKey(name string, i int) []byte {
	return []byte(fmt.Sprintf("d/%s/%08d", name, i))
}

func validName(name string) bool {
	if name == "" || len(name) > 255 {
		return false
	}
	for i := 0; i < len(name); i++ {
		if name[i] == '/' || name[i] == 0 {
			return false
		}
	}
	return true
}

// FileInfo describes a file.
type FileInfo struct {
	Name    string
	Size    int
	Chunks  int
	ModTime time.Time // the inode record's (NIC) timestamp
}

// encodeInode packs size and chunk count.
func encodeInode(size, chunks int) []byte {
	b := make([]byte, 16)
	binary.LittleEndian.PutUint64(b[0:8], uint64(size))
	binary.LittleEndian.PutUint64(b[8:16], uint64(chunks))
	return b
}

func decodeInode(b []byte) (size, chunks int, err error) {
	if len(b) != 16 {
		return 0, 0, fmt.Errorf("pktfs: corrupt inode (%d bytes)", len(b))
	}
	return int(binary.LittleEndian.Uint64(b[0:8])), int(binary.LittleEndian.Uint64(b[8:16])), nil
}

// WriteFile creates or replaces a file with data. The write is
// crash-atomic at the file level: chunks commit first, the inode commits
// last, and Fsck garbage-collects chunks with no (or a stale) inode.
func (fs *FS) WriteFile(name string, data []byte) error {
	if !validName(name) {
		return ErrBadName
	}
	// Stale chunks beyond the new count are removed after the inode
	// flips; remember the old shape.
	oldChunks := 0
	if fi, err := fs.Stat(name); err == nil {
		oldChunks = fi.Chunks
	}
	chunks := (len(data) + fs.chunkSize - 1) / fs.chunkSize
	for i := 0; i < chunks; i++ {
		lo := i * fs.chunkSize
		hi := min(lo+fs.chunkSize, len(data))
		if err := fs.s.Put(chunkKey(name, i), data[lo:hi]); err != nil {
			return err
		}
	}
	if err := fs.s.Put(inodeKey(name), encodeInode(len(data), chunks)); err != nil {
		return err
	}
	for i := chunks; i < oldChunks; i++ {
		if _, err := fs.s.Delete(chunkKey(name, i)); err != nil {
			return err
		}
	}
	return nil
}

// ReadFile returns a file's contents.
func (fs *FS) ReadFile(name string) ([]byte, error) {
	fi, err := fs.Stat(name)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, fi.Size)
	for i := 0; i < fi.Chunks; i++ {
		c, ok, err := fs.s.Get(chunkKey(name, i))
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, fmt.Errorf("pktfs: %s missing chunk %d", name, i)
		}
		out = append(out, c...)
	}
	if len(out) != fi.Size {
		return nil, fmt.Errorf("pktfs: %s has %d bytes, inode says %d", name, len(out), fi.Size)
	}
	return out, nil
}

// Stat describes a file.
func (fs *FS) Stat(name string) (FileInfo, error) {
	if !validName(name) {
		return FileInfo{}, ErrBadName
	}
	ref, ok, err := fs.s.GetRef(inodeKey(name))
	if err != nil {
		return FileInfo{}, err
	}
	if !ok {
		return FileInfo{}, ErrNotExist
	}
	v, ok, err := fs.s.Get(inodeKey(name))
	if err != nil || !ok {
		return FileInfo{}, fmt.Errorf("pktfs: inode read: %v", err)
	}
	size, chunks, err := decodeInode(v)
	if err != nil {
		return FileInfo{}, err
	}
	return FileInfo{Name: name, Size: size, Chunks: chunks, ModTime: ref.HWTime}, nil
}

// Remove deletes a file.
func (fs *FS) Remove(name string) error {
	fi, err := fs.Stat(name)
	if err != nil {
		return err
	}
	// Inode first: a crash mid-removal leaves orphan chunks for Fsck, not
	// a resurrectable file.
	if _, err := fs.s.Delete(inodeKey(name)); err != nil {
		return err
	}
	for i := 0; i < fi.Chunks; i++ {
		if _, err := fs.s.Delete(chunkKey(name, i)); err != nil {
			return err
		}
	}
	return nil
}

// List returns the names of all files.
func (fs *FS) List() ([]string, error) {
	var names []string
	err := fs.s.Ascend([]byte("i/"), func(rec packetstore.Record) bool {
		k := string(rec.Key)
		if len(k) < 2 || k[:2] != "i/" {
			return false
		}
		names = append(names, k[2:])
		return true
	})
	return names, err
}

// FsckReport summarizes a consistency scan.
type FsckReport struct {
	Files         int
	OrphanChunks  int // chunk records with no live inode (removed)
	MissingChunks []string
	Corrupt       []string // checksum failures (from the store scrub)
}

// Fsck verifies every file's structure and integrity and garbage-collects
// orphan chunks left by crashes between chunk and inode commits.
func (fs *FS) Fsck() (FsckReport, error) {
	var rep FsckReport
	names, err := fs.List()
	if err != nil {
		return rep, err
	}
	rep.Files = len(names)
	valid := map[string]int{} // name -> chunk count
	for _, n := range names {
		fi, err := fs.Stat(n)
		if err != nil {
			return rep, err
		}
		valid[n] = fi.Chunks
		for i := 0; i < fi.Chunks; i++ {
			if _, ok, _ := fs.s.Get(chunkKey(n, i)); !ok {
				rep.MissingChunks = append(rep.MissingChunks, fmt.Sprintf("%s/%d", n, i))
			}
		}
	}
	// Orphan chunks: data records whose file or index is gone/stale.
	var orphans [][]byte
	err = fs.s.Ascend([]byte("d/"), func(rec packetstore.Record) bool {
		k := string(rec.Key)
		if len(k) < 2 || k[:2] != "d/" {
			return false
		}
		var name string
		var idx int
		slash := -1
		for i := len(k) - 1; i >= 2; i-- {
			if k[i] == '/' {
				slash = i
				break
			}
		}
		if slash < 0 {
			return true
		}
		name = k[2:slash]
		fmt.Sscanf(k[slash+1:], "%d", &idx)
		if chunks, ok := valid[name]; !ok || idx >= chunks {
			orphans = append(orphans, append([]byte(nil), rec.Key...))
		}
		return true
	})
	if err != nil {
		return rep, err
	}
	for _, k := range orphans {
		if _, err := fs.s.Delete(k); err != nil {
			return rep, err
		}
	}
	rep.OrphanChunks = len(orphans)
	// Byte-level integrity via the store's transport-derived checksums.
	bad, err := fs.s.Verify()
	if err != nil {
		return rep, err
	}
	for _, k := range bad {
		rep.Corrupt = append(rep.Corrupt, string(k))
	}
	return rep, nil
}
