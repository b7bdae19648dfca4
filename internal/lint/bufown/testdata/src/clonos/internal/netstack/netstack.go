// Stub of clonos/internal/netstack for bufown fixtures.
package netstack

import (
	"errors"

	"clonos/internal/buffer"
)

type Message struct {
	Data []byte
	buf  *buffer.Buffer
}

func NewMessage() *Message { return new(Message) }

func (m *Message) Release()              {}
func (m *Message) Bind(b *buffer.Buffer) { m.buf = b }

var sent []*Message
var errClosed = errors.New("closed")

// Send takes ownership of m when it returns nil.
//
//clonos:owns-transfer on-success
func Send(m *Message, closed bool) error {
	if closed {
		return errClosed
	}
	sent = append(sent, m)
	return nil
}
