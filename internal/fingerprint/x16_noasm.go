//go:build !amd64 || purego

package fingerprint

const haveAVX512 = false

func sumX16(Algorithm, [][]byte, []Fingerprint) {
	panic("fingerprint: no 16-lane kernel in this build")
}
