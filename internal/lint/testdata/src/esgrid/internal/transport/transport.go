// Fixture standing in for the real internal/transport: its
// length-prefixed frame reads park on a simulated conn through an
// io.Reader the call graph cannot see into, so vtblock seeds them by
// name and path, exactly like the real package.
package transport

import "io"

// ReadFrame reads one frame (blocking seed).
func ReadFrame(r io.Reader) ([]byte, error) { return nil, nil }

// ReadJSON reads one frame and decodes it into v (blocking seed).
func ReadJSON(r io.Reader, v any) error { return nil }

// WriteJSON writes one frame; it is not a seed.
func WriteJSON(w io.Writer, v any) error { return nil }
