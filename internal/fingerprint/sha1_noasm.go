// Delete when go.mod reaches 1.25 (see sha1.go).

//go:build !amd64 || purego

package fingerprint

const haveSHANI = false

func sumSHANI([]byte) [Size]byte { panic("fingerprint: no SHA-NI kernel in this build") }
