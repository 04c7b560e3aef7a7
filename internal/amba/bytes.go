package amba

// Byte-boundary helpers for transports that carry word packets over an
// octet stream (the TCP transport's frame payloads). Words travel
// little-endian — the byte order of every host this runs on.

// WordBytes is the wire size of one channel word in bytes.
const WordBytes = 4

// PutWord appends the little-endian encoding of w to dst.
func PutWord(dst []byte, w Word) []byte {
	return append(dst, byte(w), byte(w>>8), byte(w>>16), byte(w>>24))
}

// GetWord decodes a little-endian word from the first WordBytes of src.
// The caller guarantees len(src) >= WordBytes.
func GetWord(src []byte) Word {
	return Word(src[0]) | Word(src[1])<<8 | Word(src[2])<<16 | Word(src[3])<<24
}
