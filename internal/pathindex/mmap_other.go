//go:build !unix

package pathindex

import "os"

// mapFile on platforms without a usable mmap reads the whole file into
// memory, so the open cost includes one sequential read of the file.
func mapFile(path string) ([]byte, func([]byte) error, error) {
	data, err := os.ReadFile(path)
	return data, nil, err
}
