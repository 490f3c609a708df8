//go:build !race

package pmem

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"syscall"
)

// mappedBytes counts the image bytes mapped and not yet unmapped.
var mappedBytes atomic.Int64

// image owns a Region's volatile image: an anonymous private mapping,
// outside the Go heap as a DAX-mapped device is. The collector neither
// scans it nor sizes its next goal by it, and a page costs memory only
// once it is written. The finalizer that unmaps it hangs on this owner,
// not on the Region: the Region's domains point back at it, and an
// object reachable from itself is never finalized.
type image struct{ b []byte }

// newImage maps a zeroed image of size bytes and returns it with its
// owner; the mapping lives exactly as long as the owner is reachable.
//
// Race builds keep the image on the heap (image_race.go): the race
// detector watches only memory Go allocated, and the NIC-versus-fence
// races the simulator must expose live in these bytes.
func newImage(size int) ([]byte, *image) {
	b, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		panic(fmt.Sprintf("pmem: map a %d-byte image: %v", size, err))
	}
	mappedBytes.Add(int64(size))
	img := &image{b}
	runtime.SetFinalizer(img, (*image).unmap)
	return b, img
}

func (img *image) unmap() {
	if err := syscall.Munmap(img.b); err != nil {
		panic(fmt.Sprintf("pmem: unmap image: %v", err))
	}
	mappedBytes.Add(-int64(len(img.b)))
}
