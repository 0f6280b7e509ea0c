//go:build unix

package pathindex

import (
	"fmt"
	"os"
	"syscall"
)

// mapFile maps path read-only and returns the file image and an unmap
// function (nil when the image is an ordinary heap buffer). Filesystems
// that refuse mmap fall back to reading the file into memory.
func mapFile(path string) ([]byte, func([]byte) error, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, nil, err
	}
	size := st.Size()
	if size == 0 {
		return nil, nil, fmt.Errorf("pathindex: %s is empty", path)
	}
	if int64(int(size)) != size {
		return nil, nil, fmt.Errorf("pathindex: %s does not fit the address space (%d bytes)", path, size)
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_PRIVATE)
	if err != nil {
		data, rerr := os.ReadFile(path)
		if rerr != nil {
			return nil, nil, fmt.Errorf("pathindex: mmap %s failed (%v) and so did the read fallback: %w", path, err, rerr)
		}
		return data, nil, nil
	}
	return data, syscall.Munmap, nil
}
