//go:build race

package pmem

// image has no state in race builds: the image is an ordinary heap slice,
// which the race detector watches (it ignores mapped memory), so races
// on PM bytes stay visible to it. image.go has the mapped version.
type image struct{}

func newImage(size int) ([]byte, *image) { return make([]byte, size), nil }
