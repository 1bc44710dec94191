package trace

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadJSON asserts that neither the trace decoder nor replay ever
// panics: any log the decoder accepts either replays or fails with an
// error, board rule violations included.
func FuzzReadJSON(f *testing.F) {
	var good bytes.Buffer
	l := &Log{}
	l.Append(Event{Time: 0, Kind: Place, Agent: 0, To: 0})
	l.Append(Event{Time: 1, Kind: Move, Agent: 0, From: 0, To: 1})
	if err := l.WriteJSON(&good); err != nil {
		f.Fatal(err)
	}
	f.Add(good.String())
	f.Add("[]")
	f.Add(`[{"kind":"move","agent":3}]`)
	f.Add("not json")
	f.Add(`[{"kind":"place","agent":0,"to":9999}]`)

	f.Fuzz(func(t *testing.T, data string) {
		log, err := ReadJSON(strings.NewReader(data))
		if err != nil {
			return
		}
		_, _ = log.Replay(pathGraph(4), 0)
	})
}
