"""The live topology view: one self-contained HTML page.

Served at ``/`` by the controller: a D3-style data-joined SVG
rendering of the CAN tessellation, with no external assets (the
container has no CDN access, so the whole view -- markup, styles and
script -- is inlined).  The script polls ``/topology`` and ``/health``
on a timer and redraws:

* every member's zone as a rectangle in the unit square,
  shaded by its published load relative to the current maximum (the
  paper's per-zone load story made visible);
* expressway links as translucent chords between zone centers, drawn
  once per (src, dst) pair;
* per-node health from the SWIM verdicts: suspected zones pulse
  amber, down/confirmed-dead zones turn red until takeover removes
  them;
* a status strip with member counts, shard layout, overall health and
  the zone version, so an operator watching a churn soak sees joins,
  crashes and takeovers as they land.

Only 2-D tessellations draw (the default); higher-dimensional
overlays get the status strip and a member table instead.
"""

from __future__ import annotations

_PAGE = """<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>repro overlay — live zone map</title>
<style>
  body { font: 13px/1.5 system-ui, sans-serif; margin: 0; padding: 16px;
         background: #10141a; color: #d7dde6; }
  h1 { font-size: 16px; margin: 0 0 4px; font-weight: 600; }
  #strip { margin: 6px 0 12px; color: #8b97a6; }
  #strip b { color: #d7dde6; font-weight: 600; }
  .chip { display: inline-block; margin-right: 14px; }
  .healthy { color: #4cc38a; } .degraded { color: #e7b549; }
  .unhealthy { color: #e5534b; }
  #map { background: #161b23; border: 1px solid #232a35; border-radius: 6px; }
  #legend { margin-top: 8px; color: #8b97a6; font-size: 12px; }
  .swatch { display: inline-block; width: 10px; height: 10px;
            border-radius: 2px; margin: 0 4px 0 12px; vertical-align: -1px; }
  table { border-collapse: collapse; margin-top: 12px; }
  td, th { padding: 2px 10px; border-bottom: 1px solid #232a35; }
</style>
</head>
<body>
<h1>repro overlay — live zone map</h1>
<div id="strip">loading&hellip;</div>
<svg id="map" width="760" height="760" viewBox="0 0 760 760"></svg>
<div id="legend">
  zone shade = published load (light &rarr; dark)
  <span class="swatch" style="background:#2b5f8f"></span>low
  <span class="swatch" style="background:#9ecbff"></span>high
  <span class="swatch" style="background:#e7b549"></span>suspected
  <span class="swatch" style="background:#e5534b"></span>down
  &mdash; chords are expressway links
</div>
<div id="fallback"></div>
<script>
"use strict";
const SIZE = 760, REFRESH_MS = 1000;
const svg = document.getElementById("map");
const strip = document.getElementById("strip");
const fallback = document.getElementById("fallback");

function el(name, attrs) {
  const node = document.createElementNS("http://www.w3.org/2000/svg", name);
  for (const key in attrs) node.setAttribute(key, attrs[key]);
  return node;
}

function loadShade(t) {
  // interpolate #2b5f8f -> #9ecbff by load fraction t
  const mix = (a, b) => Math.round(a + (b - a) * t);
  return `rgb(${mix(43, 158)},${mix(95, 203)},${mix(143, 255)})`;
}

function center(zone) {
  return [ (zone.lo[0] + zone.hi[0]) / 2 * SIZE,
           (zone.lo[1] + zone.hi[1]) / 2 * SIZE ];
}

function drawStrip(topo, health) {
  const status = health ? health.status : "unknown";
  const shards = topo.shards.members_per_shard.join("/");
  strip.innerHTML =
    `<span class="chip">status <b class="${status}">${status}</b></span>` +
    `<span class="chip">members <b>${topo.members.length}</b>` +
    (health ? ` (live <b>${health.live}</b>)` : "") + `</span>` +
    `<span class="chip">shards <b>${topo.shards.count}</b> [${shards}]</span>` +
    `<span class="chip">expressways <b>${topo.expressways.length}</b></span>` +
    `<span class="chip">zone version <b>${topo.zone_version}</b></span>` +
    (health && health.partitions_active
       ? `<span class="chip degraded">partitions <b>${health.partitions_active}</b></span>`
       : "");
}

function drawMap(topo, health) {
  const verdicts = {};
  if (health) for (const node of health.nodes) verdicts[node.id] = node.verdict;
  const maxLoad = Math.max(1e-9, ...topo.members.map(m => m.load));
  svg.textContent = "";
  const centers = {};
  for (const member of topo.members) {
    const zone = member.zone;
    centers[member.id] = center(zone);
    const verdict = verdicts[member.id] || "alive";
    let fill = loadShade(member.load / maxLoad);
    if (verdict === "suspected") fill = "#e7b549";
    else if (verdict !== "alive") fill = "#e5534b";
    const rect = el("rect", {
      x: zone.lo[0] * SIZE, y: zone.lo[1] * SIZE,
      width: (zone.hi[0] - zone.lo[0]) * SIZE,
      height: (zone.hi[1] - zone.lo[1]) * SIZE,
      fill: fill, "fill-opacity": 0.85,
      stroke: "#10141a", "stroke-width": 1,
    });
    const title = el("title", {});
    title.textContent = `node ${member.id} host ${member.host} ` +
      `domain ${member.domain} shard ${member.shard} ` +
      `load ${member.load.toFixed(3)} (${verdict})`;
    rect.appendChild(title);
    svg.appendChild(rect);
  }
  const seen = new Set();
  for (const link of topo.expressways) {
    const key = link.src < link.dst ? link.src + ":" + link.dst
                                    : link.dst + ":" + link.src;
    if (seen.has(key)) continue;
    seen.add(key);
    const a = centers[link.src], b = centers[link.dst];
    if (!a || !b) continue;
    svg.appendChild(el("line", {
      x1: a[0], y1: a[1], x2: b[0], y2: b[1],
      stroke: "#8b97a6", "stroke-opacity": 0.35, "stroke-width": 1,
    }));
  }
}

function drawTable(topo) {
  const rows = topo.members.map(m =>
    `<tr><td>${m.id}</td><td>${m.host}</td><td>${m.domain}</td>` +
    `<td>${m.shard}</td><td>${m.load.toFixed(3)}</td></tr>`).join("");
  fallback.innerHTML =
    `<p>${topo.dims}-dimensional tessellation: rendering the member table.</p>` +
    `<table><tr><th>node</th><th>host</th><th>domain</th><th>shard</th>` +
    `<th>load</th></tr>${rows}</table>`;
}

async function refresh() {
  try {
    const topo = await (await fetch("/topology")).json();
    let health = null;
    try { health = await (await fetch("/health")).json(); } catch (e) {}
    drawStrip(topo, health);
    if (topo.dims === 2) { fallback.textContent = ""; drawMap(topo, health); }
    else { svg.textContent = ""; drawTable(topo); }
  } catch (err) {
    strip.innerHTML = `<span class="unhealthy">controller unreachable: ${err}</span>`;
  }
}
refresh();
setInterval(refresh, REFRESH_MS);
</script>
</body>
</html>
"""


def render_zone_map_html() -> str:
    """The complete page served at ``/`` (no external assets); it polls
    once a second."""
    return _PAGE
