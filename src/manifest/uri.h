// URI path helpers for resolving manifest-internal references.
//
// The simulated origin uses absolute paths ("/video/2/seg7.ts") as URLs.
// Manifests carry references relative to the manifest's own location, exactly
// like real HLS/DASH deployments.
#pragma once

#include <string>
#include <string_view>

namespace vodx::manifest {

/// Resolves `reference` against `base_url`. Absolute references (leading '/')
/// are returned as-is; relative ones are joined to the base's directory.
/// "." and ".." path components are normalised.
std::string uri_resolve(std::string_view base_url, std::string_view reference);

}  // namespace vodx::manifest
