package scalesim

import (
	"scalesim/internal/store"
)

// StoreSchema is the version tag carried by every durable-store artifact.
// Artifacts tagged with an unknown schema are rejected (ErrUnknownSchema)
// rather than silently misread.
const StoreSchema = store.ArtifactSchema

// StoreInfo is an offline inspection report for a campaign store directory
// (see CheckStore).
type StoreInfo = store.CheckInfo

// CheckStore verifies every artifact in the campaign store at dir —
// schema tag, embedded key, and checksum — without modifying anything. It
// reports verification failures in the counts; the returned error is
// non-nil only when the store itself cannot be read (including a journal
// with an unknown schema, wrapping ErrUnknownSchema).
func CheckStore(dir string) (StoreInfo, error) {
	return store.Check(dir)
}

// ReadArtifact verifies and decodes one store artifact file, returning the
// result and the job key it was stored under. Errors wrap ErrStoreCorrupt
// or ErrUnknownSchema.
func ReadArtifact(path string) (*SimResult, string, error) {
	res, key, err := store.ReadArtifact(path)
	if err != nil {
		return nil, key, err
	}
	return resultFromInternal(res), key, nil
}
